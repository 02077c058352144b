/**
 * @file
 * Confidence-estimation subsystem tests:
 *
 *  - counter boundaries: width 1 is predict-after-one-hit, a
 *    threshold above the saturation ceiling never predicts (and the
 *    stats report coverage 0 without dividing by zero), saturation
 *    never wraps, and the resetting vs decrementing miss penalties
 *    diverge on a crafted alternating-hit trace;
 *  - composition: the gate wraps bounded specs, round-trips through
 *    the spec grammar, and a threshold-0 gate is observationally
 *    identical to the ungated predictor (bounded or not);
 *  - the coverage/accuracy monotone trade-off over the sweep grid on
 *    every workload, and the profit case for gating fcm3 — the
 *    vpexp-confidence acceptance bars, asserted rather than printed.
 */

#include <gtest/gtest.h>

#include "core/bounded.hh"
#include "core/confidence.hh"
#include "core/last_value.hh"
#include "exp/confidence.hh"
#include "exp/experiment.hh"
#include "exp/suite.hh"
#include "sim/driver.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace {

using namespace vp;
using namespace vp::core;

/** A crafted single-PC trace with the given value sequence. */
std::vector<vm::TraceEvent>
traceOf(std::initializer_list<uint64_t> values)
{
    std::vector<vm::TraceEvent> events;
    for (const uint64_t value : values) {
        events.push_back({0x40, isa::Opcode::Add, isa::Category::AddSub,
                          value});
    }
    return events;
}

/** One workload's smoke-scale trace, recorded once. */
const std::vector<vm::TraceEvent> &
compressTrace()
{
    static const std::vector<vm::TraceEvent> cached = [] {
        workloads::WorkloadConfig config;
        config.scale = 5;
        const auto prog =
                workloads::findWorkload("compress").build(config);
        vm::RecordingSink sink;
        vm::Machine machine;
        machine.setSink(&sink);
        EXPECT_TRUE(machine.run(prog).ok());
        return sink.events;
    }();
    return cached;
}

PredictionStats
runOver(PredictorPtr pred, const std::vector<vm::TraceEvent> &events)
{
    sim::PredictorBank bank;
    bank.add(std::move(pred));
    vm::VectorBatchSource source(events, 1);
    sim::replayTrace(source, bank);
    return bank.member(0).stats;
}

/** Every counter PredictionStats holds, including the gated triple. */
void
expectIdenticalStats(const PredictionStats &a, const PredictionStats &b)
{
    EXPECT_EQ(a.total(), b.total());
    EXPECT_EQ(a.predicted(), b.predicted());
    EXPECT_EQ(a.correct(), b.correct());
    for (int c = 0; c < isa::numCategories; ++c) {
        const auto cat = static_cast<isa::Category>(c);
        EXPECT_EQ(a.total(cat), b.total(cat)) << "category " << c;
        EXPECT_EQ(a.predicted(cat), b.predicted(cat)) << "category " << c;
        EXPECT_EQ(a.correct(cat), b.correct(cat)) << "category " << c;
    }
}

// ------------------------------------------------- counter boundaries

TEST(Confidence, WidthOneIsPredictAfterOneHit)
{
    ConfidenceConfig config;
    config.width = 1;               // saturates at 1
    config.threshold = 1;
    ConfidencePredictor pred(std::make_unique<LastValuePredictor>(),
                             config);

    // Cold: the inner predictor declines, the counter is 0.
    EXPECT_FALSE(pred.predict(0x40).valid);
    pred.update(0x40, 42);          // inner was cold: miss, counter 0

    // The inner table now knows 42 but the gate has seen no hit yet.
    EXPECT_FALSE(pred.predict(0x40).valid);
    EXPECT_EQ(pred.counter(0x40), 0);
    pred.update(0x40, 42);          // inner hit: counter -> 1

    // One demonstrated hit opens the gate.
    EXPECT_TRUE(pred.predict(0x40).valid);
    EXPECT_EQ(pred.predict(0x40).value, 42u);
    EXPECT_EQ(pred.counter(0x40), 1);

    // A miss closes it again immediately (reset penalty).
    pred.update(0x40, 7);
    EXPECT_FALSE(pred.predict(0x40).valid);
    EXPECT_EQ(pred.counter(0x40), 0);
}

TEST(Confidence, ThresholdAboveCeilingNeverPredictsAndStatsStayFinite)
{
    ConfidenceConfig config;
    config.width = 2;               // saturates at 3
    config.threshold = 4;           // unreachable
    const auto stats = runOver(
            std::make_unique<ConfidencePredictor>(
                    std::make_unique<LastValuePredictor>(), config),
            compressTrace());

    EXPECT_EQ(stats.total(), compressTrace().size());
    EXPECT_EQ(stats.predicted(), 0u);
    EXPECT_EQ(stats.correct(), 0u);
    EXPECT_DOUBLE_EQ(stats.coverage(), 0.0);
    EXPECT_DOUBLE_EQ(stats.accuracyWhenPredicted(), 0.0);
    EXPECT_DOUBLE_EQ(stats.accuracy(), 0.0);
    EXPECT_DOUBLE_EQ(stats.profit(8.0), 0.0);
}

TEST(Confidence, SaturationNeverWraps)
{
    for (const ConfidencePenalty penalty :
         {ConfidencePenalty::Reset, ConfidencePenalty::Decrement}) {
        ConfidenceConfig config;
        config.width = 2;           // saturates at 3
        config.threshold = 2;
        config.penalty = penalty;
        ConfidencePredictor pred(std::make_unique<LastValuePredictor>(),
                                 config);

        for (int i = 0; i < 100; ++i) {
            pred.update(0x40, 42);
            EXPECT_LE(pred.counter(0x40), config.maxCount());
        }
        EXPECT_EQ(pred.counter(0x40), 3);

        // One miss: reset drops to 0, decrement to 2 — never below 0
        // even when misses keep coming.
        pred.update(0x40, 7);
        EXPECT_EQ(pred.counter(0x40),
                  penalty == ConfidencePenalty::Reset ? 0 : 2);
        for (int i = 0; i < 10; ++i)
            pred.update(0x40, 1000 + static_cast<uint64_t>(i));
        EXPECT_GE(pred.counter(0x40), 0);
    }
}

TEST(Confidence, ResetAndDecrementDivergeOnAlternatingHits)
{
    // Last value over 1,1,1,2,2,2,3,3,3,... alternates two hits with
    // one miss. With width 2 / threshold 2, the resetting estimator
    // re-earns trust from zero after every value change and reaches
    // the threshold exactly when the next change (a miss) is due; the
    // decrementing estimator only dips to 1 and keeps the gate open
    // through the steady state.
    std::vector<uint64_t> values;
    for (uint64_t v = 1; v <= 40; ++v) {
        for (int repeat = 0; repeat < 3; ++repeat)
            values.push_back(v);
    }
    std::vector<vm::TraceEvent> events;
    for (const uint64_t value : values) {
        events.push_back({0x40, isa::Opcode::Add, isa::Category::AddSub,
                          value});
    }

    ConfidenceConfig config;
    config.width = 2;
    config.threshold = 2;
    config.penalty = ConfidencePenalty::Reset;
    const auto reset = runOver(
            std::make_unique<ConfidencePredictor>(
                    std::make_unique<LastValuePredictor>(), config),
            events);
    config.penalty = ConfidencePenalty::Decrement;
    const auto decrement = runOver(
            std::make_unique<ConfidencePredictor>(
                    std::make_unique<LastValuePredictor>(), config),
            events);

    EXPECT_EQ(reset.total(), decrement.total());

    // Resetting: the counter hits 2 exactly on the events where the
    // value changes — it predicts only the misses.
    EXPECT_GT(reset.predicted(), 0u);
    EXPECT_EQ(reset.correct(), 0u);

    // Decrementing: the gate stays open through the 2-hit/1-miss
    // cycle, so it predicts far more often and is right on the hits.
    EXPECT_GT(decrement.predicted(), reset.predicted());
    EXPECT_GT(decrement.correct(), 0u);
    EXPECT_GT(decrement.accuracyWhenPredicted(),
              reset.accuracyWhenPredicted());
}

// ---------------------------------------------- grammar & composition

TEST(ConfidenceSpecs, NamesRoundTripThroughTheGrammar)
{
    for (const char *spec :
         {"l:c2t3", "s2:c1t1", "fcm3:c3t6", "l@1024x4:c2t3",
          "s2@256x2r:c2t2", "fcm3@256/1024x4:c3t6",
          "fcm3@256/1024x4f:c4t9d", "l:c2t3d", "l:c2t0"}) {
        EXPECT_EQ(exp::makePredictor(spec)->name(), spec) << spec;
    }

    // The explicit "r" (reset) spelling is accepted and canonicalises
    // away, like the bounded grammar's -sat: reset is the default.
    EXPECT_EQ(exp::makePredictor("fcm3@256/1024x4:c3t6r")->name(),
              "fcm3@256/1024x4:c3t6");
    // The hybrid names its components, gated or not.
    EXPECT_EQ(exp::makePredictor("hybrid:c1t1")->name(),
              "hyb(s2+fcm3):c1t1");
}

TEST(ConfidenceSpecs, RejectsMalformedSuffixes)
{
    for (const char *spec :
         {"l:", "l:c", "l:c2", "l:t3", "l:c2t", "l:ct3", "l:c0t1",
          "l:c17t1", "l:c2t3x", "l:c2x3", "l:c2t3:c2t3", ":c2t3",
          "l:c99999999999t1", "l:c2t99999999999"}) {
        EXPECT_THROW(exp::makePredictor(spec), std::invalid_argument)
                << spec;
    }
}

TEST(ConfidenceSpecs, ThresholdZeroEqualsUngatedPredictor)
{
    // The acceptance bar: a threshold-0 gate is observationally
    // identical to the plain predictor — bounded, unbounded, hybrid.
    for (const char *base :
         {"l", "s2", "fcm2", "hybrid", "l@64x2", "s2@64x2f",
          "fcm2@64/256x4"}) {
        SCOPED_TRACE(base);
        const auto plain =
                runOver(exp::makePredictor(base), compressTrace());
        const auto gated = runOver(
                exp::makePredictor(std::string(base) + ":c3t0"),
                compressTrace());
        expectIdenticalStats(gated, plain);
    }
}

TEST(ConfidenceSpecs, GatedStarvedBoundedTablesNeverCrash)
{
    for (const char *spec :
         {"l@16x1:c2t2", "s2@16x16:c1t1", "fcm3@16/16x4:c3t7",
          "fcm2@16/16x4f:c2t2d"}) {
        SCOPED_TRACE(spec);
        const auto stats =
                runOver(exp::makePredictor(spec), compressTrace());
        EXPECT_EQ(stats.total(), compressTrace().size());
        EXPECT_LE(stats.predicted(), stats.total());
        EXPECT_LE(stats.correct(), stats.predicted());
    }
}

// --------------------------- sweep acceptance (vpexp confidence)

/** The sweep's runs over all seven workloads at smoke scale, run
 *  once. */
const std::vector<exp::BenchmarkRun> &
sweepRuns()
{
    static const std::vector<exp::BenchmarkRun> cached = [] {
        exp::SuiteOptions options = exp::confidenceSweepOptions();
        options.config.scale = 5;
        exp::CellScheduler scheduler(exp::ExperimentConfig{});
        return scheduler.suite(options);
    }();
    return cached;
}

TEST(ConfidenceSweep, TradeOffIsMonotoneOnEveryWorkload)
{
    const auto &families = exp::confidenceFamilies();
    const auto &points = exp::confidenceSweepPoints();

    for (const auto &run : sweepRuns()) {
        SCOPED_TRACE(run.name);
        for (size_t f = 0; f < families.size(); ++f) {
            SCOPED_TRACE(families[f]);
            for (size_t p = 0; p < points.size(); ++p) {
                // Compare consecutive thresholds of the same width;
                // threshold 1 tightens the ungated (threshold-0)
                // column.
                const bool first_of_width =
                        points[p].threshold == 1;
                const auto &tight =
                        run.predictors.at(exp::confidenceSpecIndex(f, p))
                                .second;
                const auto &loose =
                        run.predictors
                                .at(first_of_width
                                            ? exp::confidenceUngatedIndex(f)
                                            : exp::confidenceSpecIndex(
                                                      f, p - 1))
                                .second;
                SCOPED_TRACE("c" + std::to_string(points[p].width) +
                             "t" + std::to_string(points[p].threshold));

                // Raising the threshold never raises coverage. This
                // is structural, so it is asserted over the *whole*
                // grid: the counter stream does not depend on the
                // threshold, hence the predicted sets are nested.
                EXPECT_LE(tight.predicted(), loose.predicted());

                // ...and never lowers accuracy-when-predicted: the
                // events a tighter gate drops are the low-confidence
                // ones. This direction is statistical, so it is
                // asserted over the coarse part of the grid
                // (thresholds <= 3, where every workload has signal):
                // beyond that, smoke-scale traces sit on accuracy
                // plateaus where single-digit event shifts produce
                // sub-0.1pp jitter (ijpeg's l family stalls at ~92%
                // from c3t3 on). Vacuous once nothing is predicted.
                // Compared as exact cross-multiplied integers so
                // equal ratios with different denominators cannot
                // flake on floating-point rounding.
                if (points[p].threshold <= 3 && tight.predicted() > 0) {
                    EXPECT_GE(tight.correct() * loose.predicted(),
                              loose.correct() * tight.predicted());
                }
            }
        }
    }
}

TEST(ConfidenceSweep, GatingFcm3BeatsUngatedOnProfitAtCostOneAndUp)
{
    const auto &families = exp::confidenceFamilies();
    const auto &points = exp::confidenceSweepPoints();
    size_t fcm3 = families.size();
    for (size_t f = 0; f < families.size(); ++f) {
        if (families[f] == "fcm3")
            fcm3 = f;
    }
    ASSERT_LT(fcm3, families.size());

    for (const double cost : exp::speculationCosts()) {
        SCOPED_TRACE(cost);
        ASSERT_GE(cost, 1.0);
        const double ungated = exp::meanProfit(
                sweepRuns(), exp::confidenceUngatedIndex(fcm3), cost);
        double best = ungated;
        for (size_t p = 0; p < points.size(); ++p) {
            best = std::max(best,
                            exp::meanProfit(sweepRuns(),
                                            exp::confidenceSpecIndex(fcm3, p),
                                            cost));
        }
        EXPECT_GT(best, ungated);
    }
}

} // anonymous namespace
