/**
 * @file
 * Simulation driver: runs a program on the VM and evaluates a bank of
 * predictors (plus the profilers) against the resulting value trace in
 * a single pass.
 */

#ifndef VP_SIM_DRIVER_HH
#define VP_SIM_DRIVER_HH

#include <array>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/improvement.hh"
#include "core/overlap.hh"
#include "core/predictor.hh"
#include "core/stats.hh"
#include "core/value_profile.hh"
#include "vm/machine.hh"
#include "vm/trace.hh"

namespace vp::obs {
class Instrumentation;
} // namespace vp::obs

namespace vp::sim {

/**
 * Reusable word-packed outcome rows: @c rows bit-vectors of @c n bits
 * each, in one contiguous allocation that is recycled across batches.
 * Replaces the bit-proxy overhead of std::vector<bool> on the replay
 * hot path; bits are addressed with core::bits helpers.
 */
class OutcomeBits
{
  public:
    /** Size to @p rows rows of @p n bits and clear every bit. */
    void
    reset(size_t rows, size_t n)
    {
        rowWords_ = core::bits::words(n);
        data_.assign(rows * rowWords_, 0);
    }

    uint64_t *row(size_t r) { return data_.data() + r * rowWords_; }

    const uint64_t *
    row(size_t r) const
    {
        return data_.data() + r * rowWords_;
    }

  private:
    std::vector<uint64_t> data_;
    size_t rowWords_ = 0;
};

/** One predictor under evaluation together with its statistics. */
struct EvaluatedPredictor
{
    core::PredictorPtr predictor;
    core::PredictionStats stats;
};

/**
 * A bank of predictors evaluated against one trace.
 *
 * The bank implements the paper's evaluation protocol per event:
 * every predictor is asked for a prediction, correctness is recorded,
 * and every predictor is immediately updated with the actual value.
 * Optionally an OverlapTracker (Figure 8), an ImprovementTracker
 * (Figure 9, comparing two named members of the bank) and a
 * ValueProfiler (Figure 10) observe the same pass.
 */
class PredictorBank : public vm::TraceSink
{
  public:
    /** Add a predictor; returns its index in the bank. */
    size_t add(core::PredictorPtr predictor);

    /** Enable overlap tracking over the first @p n predictors (<=8). */
    void trackOverlap(int n);

    /**
     * Enable Figure 9 improvement tracking comparing bank member
     * @p index_a (the "better" predictor, canonically fcm) against
     * member @p index_b (canonically stride).
     */
    void trackImprovement(size_t index_a, size_t index_b);

    /** Enable unique-value profiling (Figure 10). */
    void trackValues();

    void onValue(const vm::TraceEvent &event) override;

    /**
     * Batched evaluation of a span of events: one virtual dispatch
     * per (predictor, batch) instead of two per (predictor, event),
     * then the trackers are fed per event from the outcome bit rows.
     * Bit-for-bit the same statistics and tracker state as the
     * per-event protocol — batched_equivalence_test pins this.
     */
    void onBatch(vm::TraceSpan batch) override;

    size_t size() const { return members_.size(); }
    const EvaluatedPredictor &member(size_t i) const { return members_[i]; }
    EvaluatedPredictor &member(size_t i) { return members_[i]; }

    /** Find a member by predictor name; -1 when absent. */
    int indexOf(const std::string &name) const;

    /**
     * Pull every member's internal counters into @p sink (see
     * ValuePredictor::collectCounters). Members share the sink, so
     * same-family members accumulate into one metric per name —
     * family prefixes keep different families apart.
     */
    void collectCounters(core::CounterSink &sink) const;

    const core::OverlapTracker *overlap() const { return overlap_.get(); }
    const core::ImprovementTracker *improvement() const
    {
        return improvement_ ? &*improvement_ : nullptr;
    }
    const core::ValueProfiler *values() const
    {
        return values_ ? &*values_ : nullptr;
    }

  private:
    std::vector<EvaluatedPredictor> members_;
    std::unique_ptr<core::OverlapTracker> overlap_;
    std::optional<core::ImprovementTracker> improvement_;
    size_t improveA_ = 0, improveB_ = 0;
    std::optional<core::ValueProfiler> values_;

    /** Scalar path: one row, one correctness bit per member. */
    OutcomeBits scratchCorrect_;

    /** Batch path: one row per member, one bit per event. */
    OutcomeBits batchValid_, batchCorrect_;
    std::vector<uint64_t> batchPcs_, batchValues_;
};

/** Everything produced by one simulated benchmark run. */
struct RunOutcome
{
    std::string workload;
    vm::RunResult vmResult;
    size_t staticPredicted = 0;     ///< static predicted instructions
    std::array<size_t, isa::numCategories> staticByCategory{};
};

/**
 * Run @p prog on a fresh machine with @p bank attached as the trace
 * sink.
 *
 * @throws std::runtime_error if the program does not halt cleanly
 * (workloads are deterministic; anything else is a bug).
 */
RunOutcome runProgram(const isa::Program &prog, PredictorBank &bank,
                      vm::MachineConfig config = {});

/**
 * Replay a recorded value trace into @p bank — the paper's original
 * trace-driven methodology: run the VM once, evaluate many predictor
 * banks against the same stream. This is the per-event reference
 * path the streaming batched replay below is tested against.
 */
void replayTrace(const std::vector<vm::TraceEvent> &events,
                 PredictorBank &bank);

/**
 * One windowed-telemetry sample: every bank member's statistics delta
 * over one window of events (exactly WindowSeries::windowEvents of
 * them, except possibly the final partial window).
 */
struct WindowSample
{
    /** Per-member delta over the window, bank order. */
    struct Delta
    {
        uint64_t eligible = 0;      ///< events graded in the window
        uint64_t predicted = 0;
        uint64_t correct = 0;
    };

    uint64_t endEvent = 0;          ///< events replayed at window close
    std::vector<Delta> members;
};

/**
 * Windowed replay telemetry: per-window coverage/accuracy series for
 * every bank member. Windows close at *exact* multiples of
 * windowEvents — replayTrace splits spans at the boundary, so the
 * series is independent of the source's batching. The final partial
 * window (if any) is emitted too; consumers can tell it apart by
 * endEvent % windowEvents != 0.
 */
struct WindowSeries
{
    uint64_t windowEvents = 0;      ///< 0 disables windowing
    std::vector<WindowSample> samples;
};

/**
 * Streaming batched replay: drain @p source span by span through
 * PredictorBank::onBatch. Memory stays bounded by the source's block
 * size regardless of trace length (pair with vm::ReaderBatchSource to
 * stream a trace file). Returns the number of events replayed.
 *
 * @param obs optional instrumentation: batch-fill histogram and
 *        replay event/batch counters (null = off, zero extra work
 *        beyond one branch per span).
 * @param windows optional windowed telemetry (windowEvents > 0):
 *        spans are split at exact window boundaries and every bank
 *        member's stats delta is sampled per window. Splitting only
 *        changes batch geometry, never the per-event protocol, so
 *        results are byte-identical with windowing on or off.
 */
uint64_t replayTrace(vm::TraceBatchSource &source, PredictorBank &bank,
                     obs::Instrumentation *obs = nullptr,
                     WindowSeries *windows = nullptr);

} // namespace vp::sim

#endif // VP_SIM_DRIVER_HH
