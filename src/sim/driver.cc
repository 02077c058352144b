#include "sim/driver.hh"

#include <algorithm>
#include <stdexcept>

#include "obs/instrumentation.hh"

namespace vp::sim {

size_t
PredictorBank::intern(const core::SharedPredictor &predictor)
{
    if (const auto it = nodeOf_.find(predictor.get());
        it != nodeOf_.end()) {
        return it->second;
    }
    // Post-order: every child's node exists (and is evaluated) before
    // its parent's.
    std::vector<size_t> children;
    for (const auto &component : predictor->components())
        children.push_back(intern(component));

    nodes_.push_back(Node{predictor, children_.size(), children.size()});
    children_.insert(children_.end(), children.begin(), children.end());
    childRows_.resize(std::max(childRows_.size(), children.size()));
    nodeOf_.emplace(predictor.get(), nodes_.size() - 1);
    return nodes_.size() - 1;
}

size_t
PredictorBank::add(core::SharedPredictor predictor)
{
    memberNode_.push_back(intern(predictor));
    members_.push_back(EvaluatedPredictor{std::move(predictor), {}});
    return members_.size() - 1;
}

void
PredictorBank::trackOverlap(int n)
{
    if (n <= 0 || n > core::OverlapTracker::maxPredictors ||
        static_cast<size_t>(n) > members_.size()) {
        throw std::invalid_argument("trackOverlap: bad predictor count");
    }
    overlap_ = std::make_unique<core::OverlapTracker>(n);
}

void
PredictorBank::trackImprovement(size_t index_a, size_t index_b)
{
    if (index_a >= members_.size() || index_b >= members_.size())
        throw std::invalid_argument("trackImprovement: bad index");
    improvement_.emplace();
    improveA_ = index_a;
    improveB_ = index_b;
}

void
PredictorBank::trackValues()
{
    values_.emplace();
}

void
PredictorBank::onValue(const vm::TraceEvent &event)
{
    onBatch(vm::TraceSpan(&event, 1));
}

void
PredictorBank::onBatch(vm::TraceSpan batch)
{
    const size_t n = batch.size();
    if (n == 0)
        return;

    // Deinterleave the events into parallel pc/value arrays so the
    // core layer consumes plain spans without depending on vm types,
    // and into one event mask per category, shared by every member's
    // statistics below.
    batchPcs_.resize(n);
    batchValues_.resize(n);
    batchCats_.reset(isa::numCategories, n);
    batchCatEvents_.fill(0);
    for (size_t i = 0; i < n; ++i) {
        batchPcs_[i] = batch[i].pc;
        batchValues_[i] = batch[i].value;
        const auto cat = static_cast<size_t>(batch[i].cat);
        core::bits::set(batchCats_.row(cat), i);
        ++batchCatEvents_[cat];
    }

    batchValid_.reset(nodes_.size(), n);
    batchCorrect_.reset(nodes_.size(), n);

    // Each node once, children first: one virtual dispatch per
    // (node, batch). Leaves run their family's devirtualised loop;
    // composites combine the rows their children just produced.
    for (size_t k = 0; k < nodes_.size(); ++k) {
        const Node &node = nodes_[k];
        if (node.childCount == 0) {
            node.predictor->evalBatch(batchPcs_.data(),
                                      batchValues_.data(), n,
                                      batchValid_.row(k),
                                      batchCorrect_.row(k));
            continue;
        }
        for (size_t c = 0; c < node.childCount; ++c) {
            const size_t child = children_[node.firstChild + c];
            childRows_[c] = {batchValid_.row(child),
                             batchCorrect_.row(child)};
        }
        node.predictor->combineBatch(batchPcs_.data(), n,
                                     childRows_.data(),
                                     batchValid_.row(k),
                                     batchCorrect_.row(k));
    }

    // Statistics and trackers are pure accumulators over the outcome
    // bits, so feeding them member-major here produces exactly the
    // state an event-major loop builds.
    const size_t words = core::bits::words(n);
    for (size_t m = 0; m < members_.size(); ++m) {
        auto &stats = members_[m].stats;
        const uint64_t *valid = batchValid_.row(memberNode_[m]);
        const uint64_t *correct = batchCorrect_.row(memberNode_[m]);
        for (size_t c = 0; c < batchCatEvents_.size(); ++c) {
            if (batchCatEvents_[c] != 0) {
                stats.recordBatch(static_cast<isa::Category>(c),
                                  batchCatEvents_[c], batchCats_.row(c),
                                  valid, correct, words);
            }
        }
    }

    if (overlap_) {
        for (size_t i = 0; i < n; ++i) {
            uint32_t mask = 0;
            for (int m = 0; m < overlap_->numPredictors(); ++m) {
                const size_t node = memberNode_[static_cast<size_t>(m)];
                if (core::bits::test(batchCorrect_.row(node), i))
                    mask |= 1u << m;
            }
            overlap_->record(batch[i].cat, mask);
        }
    }

    if (improvement_) {
        const uint64_t *a = batchCorrect_.row(memberNode_[improveA_]);
        const uint64_t *b = batchCorrect_.row(memberNode_[improveB_]);
        for (size_t i = 0; i < n; ++i) {
            improvement_->record(batch[i].pc, batch[i].cat,
                                 core::bits::test(a, i),
                                 core::bits::test(b, i));
        }
    }

    if (values_) {
        for (const auto &event : batch)
            values_->record(event.pc, event.cat, event.value);
    }
}

void
PredictorBank::collectCounters(core::CounterSink &sink) const
{
    for (const auto &member : members_)
        member.predictor->collectCounters(sink);
}

int
PredictorBank::indexOf(const std::string &name) const
{
    for (size_t i = 0; i < members_.size(); ++i) {
        if (members_[i].predictor->name() == name)
            return static_cast<int>(i);
    }
    return -1;
}

namespace {

/**
 * Close one telemetry window: sample every member's cumulative stats,
 * emit the delta against the previous boundary, advance the boundary.
 */
void
closeWindow(const PredictorBank &bank, WindowSeries &windows,
            uint64_t end_event,
            std::vector<WindowSample::Delta> &at_last_boundary)
{
    WindowSample sample;
    sample.endEvent = end_event;
    sample.members.resize(bank.size());
    for (size_t m = 0; m < bank.size(); ++m) {
        const core::PredictionStats &stats = bank.member(m).stats;
        WindowSample::Delta &prev = at_last_boundary[m];
        sample.members[m].eligible = stats.total() - prev.eligible;
        sample.members[m].predicted = stats.predicted() - prev.predicted;
        sample.members[m].correct = stats.correct() - prev.correct;
        prev = {stats.total(), stats.predicted(), stats.correct()};
    }
    windows.samples.push_back(std::move(sample));
}

} // anonymous namespace

uint64_t
replayTrace(vm::TraceBatchSource &source, PredictorBank &bank,
            obs::Instrumentation *obs, WindowSeries *windows)
{
    const uint64_t window_n =
            windows != nullptr ? windows->windowEvents : 0;
    std::vector<WindowSample::Delta> boundary(
            window_n != 0 ? bank.size() : 0);
    uint64_t n = 0;
    for (;;) {
        vm::TraceSpan span = source.nextBatch();
        if (span.empty())
            break;
        obs::add(obs, "replay.batches");
        obs::add(obs, "replay.events", span.size());
        obs::record(obs, "replay.batch_fill", span.size());
        while (!span.empty()) {
            size_t take = span.size();
            if (window_n != 0) {
                // Split at the boundary so windows close at exact
                // multiples of windowEvents regardless of how the
                // source batches events.
                const uint64_t room = window_n - n % window_n;
                take = static_cast<size_t>(
                        std::min<uint64_t>(take, room));
            }
            bank.onBatch(span.first(take));
            span = span.subspan(take);
            n += take;
            if (window_n != 0 && n % window_n == 0)
                closeWindow(bank, *windows, n, boundary);
        }
    }
    if (window_n != 0 && n % window_n != 0)
        closeWindow(bank, *windows, n, boundary);
    return n;
}

namespace {

/**
 * Collects a live run's events and hands them to the bank in spans of
 * vm::kReplaySpan, so a run on the VM takes the same batched path as
 * trace replay instead of a one-event onBatch() per retired
 * instruction.
 */
class BatchingSink : public vm::TraceSink
{
  public:
    explicit BatchingSink(PredictorBank &bank) : bank_(bank)
    {
        events_.reserve(vm::kReplaySpan);
    }

    void
    onValue(const vm::TraceEvent &event) override
    {
        events_.push_back(event);
        if (events_.size() == vm::kReplaySpan)
            flush();
    }

    /** Evaluate the buffered events. */
    void
    flush()
    {
        bank_.onBatch(vm::TraceSpan(events_.data(), events_.size()));
        events_.clear();
    }

  private:
    PredictorBank &bank_;
    std::vector<vm::TraceEvent> events_;
};

} // anonymous namespace

RunOutcome
runProgram(const isa::Program &prog, PredictorBank &bank,
           vm::MachineConfig config)
{
    vm::Machine machine(config);
    BatchingSink sink(bank);
    machine.setSink(&sink);

    RunOutcome outcome;
    outcome.workload = prog.name;
    outcome.vmResult = machine.run(prog);
    sink.flush();
    outcome.staticPredicted = prog.countPredictedStatic();
    for (int c = 0; c < isa::numCategories; ++c) {
        outcome.staticByCategory[c] =
                prog.countPredictedStatic(static_cast<isa::Category>(c));
    }

    if (!outcome.vmResult.ok()) {
        throw std::runtime_error(
                "workload '" + prog.name + "' did not halt cleanly: " +
                vm::exitReasonName(outcome.vmResult.reason) +
                (outcome.vmResult.diagnostic.empty()
                         ? "" : " (" + outcome.vmResult.diagnostic + ")"));
    }
    return outcome;
}

} // namespace vp::sim
