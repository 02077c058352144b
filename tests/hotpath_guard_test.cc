/**
 * @file
 * Performance regression guard for the batched replay hot path.
 *
 * The batched path exists to be faster than the per-event protocol —
 * each predictor's own predict()/update() loop, the reference
 * batched_equivalence_test grades against; this guard fails the build
 * if it ever *regresses* past it. The bar is deliberately loose —
 * batched must stay within 1.25x of scalar ns/event at smoke scale,
 * median of five alternating runs each, with no other test running
 * (RUN_SERIAL in tests/CMakeLists.txt) — because unit tests run under
 * sanitizers and coverage instrumentation too, where absolute
 * speedups compress. The real per-event costs come from perfbench's
 * traced run (the core.* layers; tools/benchdiff --trace compares two
 * checkouts).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <string>
#include <utility>
#include <vector>

#include "exp/suite.hh"
#include "obs/instrumentation.hh"
#include "sim/driver.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace {

using namespace vp;
using Clock = std::chrono::steady_clock;

const std::vector<std::string> kSpecs = {"l", "s2", "fcm3"};

sim::PredictorBank
makeBank()
{
    sim::PredictorBank bank;
    exp::addSpecs(bank, kSpecs);
    return bank;
}

/** The per-event protocol on standalone predictors, event-major, with
 *  the same per-member statistics the bank keeps. */
void
scalarReplay(const std::vector<vm::TraceEvent> &events)
{
    std::vector<core::PredictorPtr> preds;
    for (const auto &spec : kSpecs)
        preds.push_back(exp::makePredictor(spec));
    std::vector<core::PredictionStats> stats(preds.size());
    for (const auto &event : events) {
        for (size_t m = 0; m < preds.size(); ++m) {
            const core::Prediction p = preds[m]->predict(event.pc);
            stats[m].record(event.cat, p.valid,
                            p.valid && p.value == event.value);
            preds[m]->update(event.pc, event.value);
        }
    }
    ASSERT_EQ(stats[0].total(), events.size());
}

/** Timed runs per side; each side's median counts. */
constexpr int kRuns = 5;

/** Wall time of one call of @p body, in seconds. */
template <typename Body>
double
secondsOf(Body &&body)
{
    const auto start = Clock::now();
    body();
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/**
 * Median wall times of @p a and @p b over @p runs runs each, in
 * seconds. The runs alternate a, b, a, b, ... so a burst of load on
 * the host slows both sides instead of whichever one was being timed,
 * and the median ignores a single run that a quiet or a busy moment
 * made unusually fast or slow on one side only.
 */
template <typename A, typename B>
std::pair<double, double>
medianOfAlternating(int runs, A &&a, B &&b)
{
    std::vector<double> times_a, times_b;
    for (int r = 0; r < runs; ++r) {
        times_a.push_back(secondsOf(a));
        times_b.push_back(secondsOf(b));
    }
    const auto median = [](std::vector<double> &times) {
        const auto mid = times.begin() + times.size() / 2;
        std::nth_element(times.begin(), mid, times.end());
        return *mid;
    };
    return {median(times_a), median(times_b)};
}

TEST(HotpathGuard, BatchedReplayDoesNotRegressPastScalar)
{
    // One combined smoke-scale trace: enough events for a stable
    // timing without making the unit shard slow.
    workloads::WorkloadConfig config;
    config.scale = 5;
    std::vector<vm::TraceEvent> events;
    for (const auto &info : workloads::allWorkloads()) {
        vm::RecordingSink sink;
        vm::Machine machine;
        machine.setSink(&sink);
        ASSERT_TRUE(machine.run(info.build(config)).ok()) << info.name;
        events.insert(events.end(), sink.events.begin(),
                      sink.events.end());
    }
    ASSERT_FALSE(events.empty());

    // Warm-up pass keeps first-touch page faults out of both timings.
    scalarReplay(events);

    const auto [scalar, batched] = medianOfAlternating(
            kRuns, [&] { scalarReplay(events); },
            [&] {
                auto bank = makeBank();
                vm::VectorBatchSource source(events, 64);
                sim::replayTrace(source, bank);
            });

    const double ns_per_event = 1e9 / static_cast<double>(events.size());
    EXPECT_LE(batched, scalar * 1.25)
            << "batched replay regressed past the scalar path: "
            << batched * ns_per_event << " ns/event batched vs "
            << scalar * ns_per_event << " ns/event scalar over "
            << events.size() << " events";
}

TEST(HotpathGuard, InstrumentationStaysOffTheHotPath)
{
    // The observability contract: counters are pulled at cell
    // boundaries, never pushed per event, so an instrumented replay
    // must produce byte-identical statistics and stay within a loose
    // wall-clock bar of the uninstrumented one (per-span counter work
    // only — a handful of map lookups per span).
    workloads::WorkloadConfig config;
    config.scale = 5;
    std::vector<vm::TraceEvent> events;
    for (const auto &info : workloads::allWorkloads()) {
        vm::RecordingSink sink;
        vm::Machine machine;
        machine.setSink(&sink);
        ASSERT_TRUE(machine.run(info.build(config)).ok()) << info.name;
        events.insert(events.end(), sink.events.begin(),
                      sink.events.end());
    }
    ASSERT_FALSE(events.empty());

    {   // Warm-up pass (first-touch page faults).
        auto bank = makeBank();
        vm::VectorBatchSource source(events);
        sim::replayTrace(source, bank);
    }

    std::vector<core::PredictionStats> statsOff, statsOn;
    obs::Registry registry;
    obs::Instrumentation instr(&registry);
    const auto [off, on] = medianOfAlternating(
            kRuns,
            [&] {
                auto bank = makeBank();
                vm::VectorBatchSource source(events);
                sim::replayTrace(source, bank);
                statsOff.clear();
                for (size_t m = 0; m < bank.size(); ++m)
                    statsOff.push_back(bank.member(m).stats);
            },
            [&] {
                auto bank = makeBank();
                vm::VectorBatchSource source(events);
                sim::replayTrace(source, bank, &instr);
                statsOn.clear();
                for (size_t m = 0; m < bank.size(); ++m)
                    statsOn.push_back(bank.member(m).stats);
            });

    ASSERT_EQ(statsOff.size(), statsOn.size());
    for (size_t m = 0; m < statsOff.size(); ++m) {
        EXPECT_EQ(statsOff[m].total(), statsOn[m].total());
        EXPECT_EQ(statsOff[m].predicted(), statsOn[m].predicted());
        EXPECT_EQ(statsOff[m].correct(), statsOn[m].correct());
    }

    // The counters themselves must be exact, not just cheap.
    const obs::Snapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counter("replay.events"),
              kRuns * static_cast<uint64_t>(events.size()));

    const double ns_per_event = 1e9 / static_cast<double>(events.size());
    EXPECT_LE(on, off * 1.25)
            << "instrumented replay regressed past instrumented-off: "
            << on * ns_per_event << " ns/event on vs "
            << off * ns_per_event << " ns/event off over "
            << events.size() << " events";
}

} // namespace
