/**
 * @file
 * Confidence estimation: gating predictions on per-instruction
 * saturating confidence counters.
 *
 * The paper measures *predictability* with always-predict semantics
 * (every eligible event counts against the predictor, Section 3), but
 * its Section 4 notes that a real machine speculates: a misprediction
 * costs recovery, so the machine must decide *when* to trust the
 * table. This decorator is that decision logic, factored out of the
 * predictors themselves: it wraps any ValuePredictor (unbounded or
 * bounded, any family, the hybrid) and converts low-confidence
 * predictions into declines, trading coverage (fraction of eligible
 * events actually predicted) against accuracy when predicting.
 *
 * The estimator is a per-static-instruction saturating up/down
 * counter, keyed by full PC exactly like the bounded last-value and
 * stride tables key their entries, so gating composes with finite
 * budgets unchanged. A correct inner prediction increments the
 * counter; anything else (a wrong value, or the inner predictor
 * declining) applies the miss penalty — either a reset to zero (the
 * classic "n strikes" estimator) or a decrement (slower to lose
 * trust). The wrapped predictor is always trained, so gating never
 * changes what the tables learn, only what the machine acts on — and
 * so every gate over one inner spec can share a single copy of it
 * (combineBatch() consumes the inner's outcome rows instead of
 * re-running it; see sim::PredictorBank).
 */

#ifndef VP_CORE_CONFIDENCE_HH
#define VP_CORE_CONFIDENCE_HH

#include <cstdint>
#include <unordered_map>

#include "core/predictor.hh"

namespace vp::core {

/** What a miss (wrong or declined inner prediction) does. */
enum class ConfidencePenalty {
    Reset,          ///< counter drops to 0
    Decrement       ///< counter loses 1
};

/** Estimator shape: counter width, gate threshold, miss penalty. */
struct ConfidenceConfig
{
    /**
     * Counter width in bits; the counter saturates at 2^width - 1.
     * Width 1 with threshold 1 is the minimal predict-after-one-hit
     * estimator. Must be in [1, 16].
     */
    int width = 2;

    /**
     * Predict only when the counter is >= this. 0 gates nothing (the
     * decorator is then observationally identical to the wrapped
     * predictor); anything above the saturation ceiling never
     * predicts.
     */
    int threshold = 2;

    ConfidencePenalty penalty = ConfidencePenalty::Reset;

    /** Saturation ceiling 2^width - 1. */
    int maxCount() const { return (1 << width) - 1; }

    friend bool operator==(const ConfidenceConfig &,
                           const ConfidenceConfig &) = default;
};

/** Render ":c<width>t<threshold>[d]" (Reset, the default, is tacit). */
std::string confidenceSuffix(const ConfidenceConfig &config);

/**
 * Confidence-gated view of another predictor.
 *
 * predict() forwards to the wrapped predictor and declines unless the
 * PC's confidence counter has reached the threshold. update() grades
 * the inner prediction against the actual value to train the counter,
 * then trains the wrapped predictor as usual. The gate never changes
 * table contents, so two decorators differing only in threshold see
 * identical counter streams — which is why raising the threshold can
 * only shrink the predicted set (the coverage/accuracy monotonicity
 * the vpexp confidence experiment demonstrates).
 */
class ConfidencePredictor : public ValuePredictor
{
  public:
    /**
     * Gate @p inner. The inner predictor may be shared with other
     * gates and with a bank member of its own (exp::SpecInterner
     * builds sweeps that way): the gate never changes what it
     * learns, so one copy serves them all — provided it is trained
     * once per event, which sim::PredictorBank's node DAG does. A
     * gate whose inner is shared is evaluated through such a bank,
     * not through its own predict()/update() (or the default
     * evalBatch() over them), which train the inner it holds.
     */
    explicit ConfidencePredictor(SharedPredictor inner,
                                 ConfidenceConfig config = {});

    Prediction predict(uint64_t pc) const override;
    void update(uint64_t pc, uint64_t actual) override;
    std::string name() const override;
    void reset() override;

    /** The inner predictor (row 0 of combineBatch()). */
    std::span<const SharedPredictor> components() const override;

    /**
     * The gate over the inner predictor's rows: a sequential pass
     * that gates each event on the pre-event counter and trains the
     * counter exactly as the scalar predict()/update() pair would.
     */
    void combineBatch(const uint64_t *pcs, size_t n,
                      const OutcomeRows *rows, uint64_t *valid,
                      uint64_t *correct) override;

    /** Inner table entries plus live confidence counters. */
    size_t tableEntries() const override;

    const ConfidenceConfig &config() const { return config_; }

    /** Current counter for @p pc (0 when never seen). */
    int counter(uint64_t pc) const;

    /** The wrapped predictor (for tests and reports). */
    const ValuePredictor &inner() const { return *inner_; }

    /** Inner predictions the gate suppressed (coverage given up). */
    uint64_t gatedDeclines() const { return gatedDeclines_; }

    /** "confidence.*" counters plus the inner predictor's dump. */
    void collectCounters(CounterSink &sink) const override;

  private:
    SharedPredictor inner_;
    ConfidenceConfig config_;
    std::unordered_map<uint64_t, int> counters_;
    uint64_t gatedDeclines_ = 0;

    /**
     * The last inner prediction, so the predict-then-update protocol
     * grades the counter without paying for a second inner lookup
     * (fcm predicts are the hottest path in the sweep). Invalidated
     * by update()/reset(): inner state changed.
     */
    mutable uint64_t lastPc_ = 0;
    mutable Prediction lastInner_{};
    mutable bool lastFresh_ = false;
};

} // namespace vp::core

#endif // VP_CORE_CONFIDENCE_HH
