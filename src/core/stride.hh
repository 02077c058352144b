/**
 * @file
 * Stride predictors (Section 2.1 of the paper).
 */

#ifndef VP_CORE_STRIDE_HH
#define VP_CORE_STRIDE_HH

#include <cstdint>
#include <unordered_map>

#include "core/predictor.hh"

namespace vp::core {

/** Stride-update policy. */
enum class StridePolicy {
    /** Stride recomputed from the last two values on every update. */
    Simple,

    /**
     * Saturating-counter hysteresis [Gonzalez & Gonzalez 97]: the
     * stride is replaced only when a success/failure counter falls
     * below a threshold. One misprediction per repeated-stride
     * iteration instead of two.
     */
    SaturatingCounter,

    /**
     * The two-delta method [Eickemeyer & Vassiliadis 93]: stride s1
     * always tracks the latest difference; the prediction stride s2 is
     * replaced only when the same s1 occurs twice in a row. This is
     * the "s2" predictor used throughout the paper's evaluation.
     */
    TwoDelta
};

/** Tuning knobs for the stride variants. */
struct StrideConfig
{
    StridePolicy policy = StridePolicy::TwoDelta;

    /** SaturatingCounter: replace stride when counter < threshold. */
    int counterMax = 3;
    int counterThreshold = 1;

    friend bool operator==(const StrideConfig &,
                           const StrideConfig &) = default;
};

/**
 * One stride table entry.
 *
 * Shared between the unbounded predictor below and the bounded
 * (set-associative) variant so that, absent capacity evictions, the
 * two are identical by construction.
 */
struct StrideEntry
{
    static constexpr bool zeroInitialised = true;   ///< core/hugepage.hh

    uint64_t last = 0;
    int64_t s1 = 0;         ///< most recent delta
    int64_t s2 = 0;         ///< prediction delta
    bool haveDelta = false;
    int counter = 0;        ///< SaturatingCounter state
};

/** The value an entry predicts: last + prediction stride. */
inline uint64_t
stridePredictValue(const StrideEntry &entry)
{
    return entry.last + static_cast<uint64_t>(entry.s2);
}

/** Initialize a freshly allocated entry from the first observed value. */
void strideInitEntry(StrideEntry &entry, uint64_t actual,
                     const StrideConfig &config);

/** Train an existing entry with the value actually produced. */
void strideTrainEntry(StrideEntry &entry, uint64_t actual,
                      const StrideConfig &config);

/** Spec name ("s", "s-sat", "s2") for a policy. */
const char *stridePolicyName(StridePolicy policy);

/**
 * Stride predictor: predicts last value + stride.
 *
 * After a single observed value the stride is still zero, so the
 * predictor degenerates to last-value until a first delta is seen;
 * the first delta initializes both strides (so a pure stride sequence
 * is predicted correctly from the third value on, matching the
 * learning time of 2 in Table 1 of the paper).
 */
class StridePredictor : public ValuePredictor
{
  public:
    explicit StridePredictor(StrideConfig config = {});

    Prediction predict(uint64_t pc) const override;
    void update(uint64_t pc, uint64_t actual) override;
    std::string name() const override;
    void reset() override;
    size_t tableEntries() const override { return table_.size(); }

    /** Batch loop: one hash probe per event. */
    void evalBatch(const uint64_t *pcs, const uint64_t *values,
                   size_t n, uint64_t *valid,
                   uint64_t *correct) override;

  private:
    StrideConfig config_;
    std::unordered_map<uint64_t, StrideEntry> table_;
};

} // namespace vp::core

#endif // VP_CORE_STRIDE_HH
