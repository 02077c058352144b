/**
 * @file
 * Value trace interface between the VM and prediction consumers.
 */

#ifndef VP_VM_TRACE_HH
#define VP_VM_TRACE_HH

#include <algorithm>
#include <cstddef>
#include <cstdint>
#include <span>
#include <vector>

#include "isa/opcode.hh"

namespace vp::vm {

/**
 * One retired, register-writing, predicted-category instruction.
 *
 * This triple (static PC, category, produced value) is the entire
 * interface the paper's predictors need: predictors are PC-indexed and
 * tables are updated with the produced value immediately after each
 * prediction (Section 3 of the paper).
 */
struct TraceEvent
{
    uint64_t pc;            ///< static instruction index
    isa::Opcode op;         ///< opcode (category derivable)
    isa::Category cat;      ///< paper category (Table 3)
    uint64_t value;         ///< value written to the destination register
};

/** Contiguous, read-only view of consecutive trace events. */
using TraceSpan = std::span<const TraceEvent>;

/** Consumer of the value trace. */
class TraceSink
{
  public:
    virtual ~TraceSink() = default;

    /** Called once per retired predicted instruction, in order. */
    virtual void onValue(const TraceEvent &event) = 0;

    /**
     * Called with a span of consecutive events, in order — the hot
     * path of batched replay (sim::replayTrace). The default simply
     * loops onValue, so every existing sink works unchanged; sinks
     * with a cheaper per-batch form (sim::PredictorBank) override it.
     */
    virtual void
    onBatch(TraceSpan batch)
    {
        for (const TraceEvent &event : batch)
            onValue(event);
    }
};

/**
 * Events per span on every trace-replay path: the default of
 * VectorBatchSource and vm::ReaderBatchSource, and the live-run
 * buffer of sim::runProgram. A bank evaluates its nodes one after
 * another over a span, so a long span lets each node's tables stay in
 * cache across many events before the next node pushes them out.
 * Results never depend on the span (sim::replayTrace). One replay
 * costs, per event of the span, 24 B for a file source's buffer, 16 B
 * for the bank's pc/value arrays and 2 bits per bank node for its
 * outcome rows: about 4 MB for the 72-node confidence bank.
 * scripts/span_sweep.py times vpexp over the seven studies: on a
 * 4 vCPU Xeon (--dry-run --jobs 4, medians of 10 interleaved runs) it
 * read 2.10 s at 4K spans, 2.00 s at 16K, 1.84 s at 64K and 1.84 s
 * at 256K, so spans past 64K buy no time.
 */
inline constexpr size_t kReplaySpan = 65536;

/**
 * Producer of the value trace in batches.
 *
 * nextBatch() yields consecutive, non-overlapping spans of the trace
 * until an empty span signals the end. The span stays valid only
 * until the next nextBatch() call, which is all batched replay needs:
 * in-memory sources hand out zero-copy views (VectorBatchSource) and
 * file sources refill one span buffer (vm::ReaderBatchSource).
 */
class TraceBatchSource
{
  public:
    virtual ~TraceBatchSource() = default;

    /** The next span of events; empty at end of trace. */
    virtual TraceSpan nextBatch() = 0;
};

/**
 * Zero-copy batch source over an in-memory event vector: every span
 * is a view into the vector, no event is ever copied.
 */
class VectorBatchSource : public TraceBatchSource
{
  public:
    /** Spans of at most @p batch events (the last one may be short). */
    explicit VectorBatchSource(const std::vector<TraceEvent> &events,
                               size_t batch = kReplaySpan)
        : events_(events), batch_(batch == 0 ? 1 : batch)
    {
    }

    TraceSpan
    nextBatch() override
    {
        const size_t n = std::min(batch_, events_.size() - pos_);
        const TraceSpan span(events_.data() + pos_, n);
        pos_ += n;
        return span;
    }

  private:
    const std::vector<TraceEvent> &events_;
    size_t batch_;
    size_t pos_ = 0;
};

/** Fan-out sink forwarding each event to several consumers. */
class FanoutSink : public TraceSink
{
  public:
    void add(TraceSink *sink) { sinks_.push_back(sink); }

    void
    onValue(const TraceEvent &event) override
    {
        for (auto *sink : sinks_)
            sink->onValue(event);
    }

  private:
    std::vector<TraceSink *> sinks_;
};

/** Sink that simply buffers the trace in memory (used by tests/benches). */
class RecordingSink : public TraceSink
{
  public:
    void onValue(const TraceEvent &event) override
    {
        events.push_back(event);
    }

    std::vector<TraceEvent> events;
};

} // namespace vp::vm

#endif // VP_VM_TRACE_HH
