/**
 * @file
 * Tests for the simulation driver: the predict-then-update protocol,
 * the optional trackers, and error handling.
 */

#include <gtest/gtest.h>

#include <memory>
#include <vector>

#include "core/fcm.hh"
#include "core/last_value.hh"
#include "core/stride.hh"
#include "masm/builder.hh"
#include "sim/driver.hh"
#include "sim/table.hh"

namespace {

using namespace vp;
using namespace vp::masm;
using namespace vp::masm::reg;

/** A program producing a known constant sequence at one PC. */
isa::Program
constantLoop(int iterations)
{
    ProgramBuilder b("constloop");
    const auto loop = b.newLabel();
    b.li(t0, iterations);
    b.bind(loop);
    b.li(t1, 77);                   // the measured instruction
    b.addi(t0, t0, -1);
    b.bnez(t0, loop);
    b.halt();
    return b.build();
}

TEST(Driver, EvaluatesPredictorsAgainstTrace)
{
    sim::PredictorBank bank;
    bank.add(std::make_unique<core::LastValuePredictor>());

    const auto outcome = sim::runProgram(constantLoop(50), bank);
    EXPECT_EQ(outcome.workload, "constloop");
    EXPECT_TRUE(outcome.vmResult.ok());

    const auto &stats = bank.member(0).stats;
    // Events: li t0 (once), then per iteration li 77 + addi. The
    // constant li is right except its first execution; the counter
    // addi never repeats so last-value always misses it.
    EXPECT_EQ(stats.total(), 1u + 50u * 2u);
    EXPECT_EQ(stats.correct(), 49u);
}

TEST(Driver, ColdPredictionsCountAsIncorrect)
{
    sim::PredictorBank bank;
    bank.add(std::make_unique<core::LastValuePredictor>());
    const auto outcome = sim::runProgram(constantLoop(1), bank);
    (void)outcome;
    // 3 events, all first-time: everything incorrect.
    EXPECT_EQ(bank.member(0).stats.correct(), 0u);
}

TEST(Driver, OverlapTracksJointCorrectness)
{
    sim::PredictorBank bank;
    bank.add(std::make_unique<core::LastValuePredictor>());
    bank.add(std::make_unique<core::StridePredictor>());
    bank.trackOverlap(2);

    sim::runProgram(constantLoop(20), bank);
    const auto *overlap = bank.overlap();
    ASSERT_NE(overlap, nullptr);
    EXPECT_EQ(overlap->total(), bank.member(0).stats.total());
    // On the constant PC both are right; on the countdown only the
    // stride predictor is: bucket 0b10 must be populated.
    EXPECT_GT(overlap->bucket(0b11), 0u);
    EXPECT_GT(overlap->bucket(0b10), 0u);
    EXPECT_EQ(overlap->bucket(0b01), 0u);
}

TEST(Driver, ImprovementComparesTwoMembers)
{
    sim::PredictorBank bank;
    const auto s2 = bank.add(std::make_unique<core::StridePredictor>());
    const auto lv =
            bank.add(std::make_unique<core::LastValuePredictor>());
    bank.trackImprovement(s2, lv);      // stride over last-value
    sim::runProgram(constantLoop(30), bank);
    const auto *improvement = bank.improvement();
    ASSERT_NE(improvement, nullptr);
    // The countdown PC is where stride beats last value.
    EXPECT_GE(improvement->staticCount(), 2u);
    const auto curve = improvement->curve();
    EXPECT_NEAR(curve.back().improvementPct, 100.0, 1e-9);
}

TEST(Driver, ValueProfilerSeesUniqueValues)
{
    sim::PredictorBank bank;
    bank.add(std::make_unique<core::LastValuePredictor>());
    bank.trackValues();
    sim::runProgram(constantLoop(10), bank);
    const auto *values = bank.values();
    ASSERT_NE(values, nullptr);
    // The li-77 PC has exactly one unique value.
    EXPECT_GT(values->staticFractionAtMost(1), 0.0);
}

TEST(Driver, IndexOfFindsMembersByName)
{
    sim::PredictorBank bank;
    bank.add(std::make_unique<core::LastValuePredictor>());
    bank.add(std::make_unique<core::StridePredictor>());
    EXPECT_EQ(bank.indexOf("l"), 0);
    EXPECT_EQ(bank.indexOf("s2"), 1);
    EXPECT_EQ(bank.indexOf("nope"), -1);
}

TEST(Driver, RejectsBadTrackerConfiguration)
{
    sim::PredictorBank bank;
    bank.add(std::make_unique<core::LastValuePredictor>());
    EXPECT_THROW(bank.trackOverlap(2), std::invalid_argument);
    EXPECT_THROW(bank.trackOverlap(0), std::invalid_argument);
    EXPECT_THROW(bank.trackImprovement(0, 5), std::invalid_argument);
}

TEST(Driver, ThrowsOnNonHaltingProgram)
{
    ProgramBuilder b("bad");
    b.addi(t0, t0, 1);              // falls off the end
    sim::PredictorBank bank;
    bank.add(std::make_unique<core::LastValuePredictor>());
    EXPECT_THROW(sim::runProgram(b.build(), bank), std::runtime_error);
}

/**
 * A stream longer than two production spans that ends in a short one:
 * 211 PCs of the paper's four sequence kinds (constant, stride,
 * repeated non-stride, non-stride), interleaved pseudo-randomly.
 */
std::vector<vm::TraceEvent>
longStream()
{
    constexpr uint64_t kPcs = 211;
    std::vector<vm::TraceEvent> events(2 * vm::kReplaySpan + 12345);
    std::vector<uint64_t> seen(kPcs, 0);
    uint64_t state = 1;
    for (auto &event : events) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        const uint64_t pc = (state >> 33) % kPcs;
        const uint64_t k = seen[pc]++;
        const uint64_t values[] = {pc, pc + 8 * k, pc + 977 * (k % 5),
                                   state >> 40};
        event = {0x1000 + 4 * pc, isa::Opcode{},
                 static_cast<isa::Category>(pc % isa::numCategories),
                 values[pc % 4]};
    }
    return events;
}

/** Everything a tracked, windowed replay reports, comparable with ==. */
struct ReplayState
{
    std::vector<uint64_t> windows;      ///< endEvent and member deltas
    std::vector<uint64_t> stats;        ///< member totals per category
    std::vector<uint64_t> overlap;      ///< buckets per category
    std::vector<double> improvement;    ///< curves per category
    std::vector<double> values;         ///< shares per category

    bool operator==(const ReplayState &) const = default;
};

ReplayState
replayInSpans(const std::vector<vm::TraceEvent> &events, size_t span)
{
    sim::PredictorBank bank;
    bank.add(std::make_unique<core::LastValuePredictor>());
    bank.add(std::make_unique<core::StridePredictor>());
    bank.add(std::make_unique<core::FcmPredictor>());
    bank.trackOverlap(3);
    bank.trackImprovement(2, 1);
    bank.trackValues();
    sim::WindowSeries series;
    series.windowEvents = 5000;
    vm::VectorBatchSource source(events, span);
    EXPECT_EQ(sim::replayTrace(source, bank, nullptr, &series),
              events.size());

    ReplayState state;
    for (const auto &sample : series.samples) {
        state.windows.push_back(sample.endEvent);
        for (const auto &delta : sample.members) {
            state.windows.insert(state.windows.end(),
                                 {delta.eligible, delta.predicted,
                                  delta.correct});
        }
    }
    state.improvement.push_back(
            static_cast<double>(bank.improvement()->staticCount()));
    state.values.push_back(
            static_cast<double>(bank.values()->staticCount()));
    for (int c = 0; c < isa::numCategories; ++c) {
        const auto cat = static_cast<isa::Category>(c);
        for (size_t m = 0; m < bank.size(); ++m) {
            const auto &stats = bank.member(m).stats;
            state.stats.insert(state.stats.end(),
                               {stats.total(cat), stats.predicted(cat),
                                stats.correct(cat)});
        }
        for (uint32_t mask = 0; mask < 8; ++mask)
            state.overlap.push_back(bank.overlap()->bucket(cat, mask));
        for (const auto &point : bank.improvement()->curve(cat)) {
            state.improvement.insert(state.improvement.end(),
                                     {point.staticPct,
                                      point.improvementPct});
        }
        const auto dist = bank.values()->distribution(cat);
        state.values.insert(state.values.end(), dist.staticShare.begin(),
                            dist.staticShare.end());
        state.values.insert(state.values.end(), dist.dynamicShare.begin(),
                            dist.dynamicShare.end());
    }
    return state;
}

TEST(Driver, WindowSeriesAndTrackersDoNotDependOnTheSpan)
{
    // Windows of 5000 events divide none of the spans, so every span
    // geometry splits at a different place.
    const auto events = longStream();
    const ReplayState one = replayInSpans(events, 1);
    EXPECT_EQ(one.windows.size(),
              (events.size() / 5000 + 1) * (1 + 3 * 3));
    EXPECT_TRUE(replayInSpans(events, 4096) == one);
    EXPECT_TRUE(replayInSpans(events, vm::kReplaySpan) == one);
}

// ------------------------------------------------------ TextTable

TEST(TextTable, AlignsColumnsAndRules)
{
    sim::TextTable table;
    table.row().cell("name").cell("value").rule();
    table.row().cell("x").cell(uint64_t(1234));
    table.row().cell("longer").cell(3.14159, 2);
    const auto text = table.render();
    EXPECT_NE(text.find("name"), std::string::npos);
    EXPECT_NE(text.find("1234"), std::string::npos);
    EXPECT_NE(text.find("3.14"), std::string::npos);
    EXPECT_NE(text.find("----"), std::string::npos);
    // Numeric cells right-align: "  1234" ends its column.
    EXPECT_NE(text.find("  1234"), std::string::npos);
}

TEST(TextTable, NegativeAndSignedCells)
{
    sim::TextTable table;
    table.row().cell(int64_t(-5)).cell(-2.5, 1);
    const auto text = table.render();
    EXPECT_NE(text.find("-5"), std::string::npos);
    EXPECT_NE(text.find("-2.5"), std::string::npos);
}

} // anonymous namespace
