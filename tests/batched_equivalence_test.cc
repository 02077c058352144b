/**
 * @file
 * Batched-vs-scalar replay equivalence over every workload trace.
 *
 * The batched hot path (PredictorBank::onBatch, the per-family
 * trainBatch loops) promises *bit-identical* observable behaviour to
 * the per-event predict-then-update protocol: the same
 * PredictionStats, the same overlap/improvement/value-profile tracker
 * state, the same table occupancy, evictions and touch-side aliasing
 * counters — for every predictor family, bounded and unbounded, gated
 * and ungated, hybrids with bounded choosers, at every batch size.
 * The only sanctioned divergence is the aliasedPeeks() diagnostic,
 * which counts probes the batch path legitimately elides.
 */

#include <gtest/gtest.h>

#include <memory>
#include <string>
#include <vector>

#include "core/bounded.hh"
#include "core/improvement.hh"
#include "core/overlap.hh"
#include "core/value_profile.hh"
#include "exp/suite.hh"
#include "sim/driver.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace {

using namespace vp;
using namespace vp::core;

/** The batch geometries the equivalence claim is swept over: single
 *  event, an odd size straddling word boundaries, the replay default,
 *  and one larger than every smoke trace. */
constexpr size_t kBatchSizes[] = {1, 7, 64, 4096};

/** Streaming replay of an in-memory trace in spans of @p batch. */
void
replayBatched(const std::vector<vm::TraceEvent> &events,
              sim::PredictorBank &bank, size_t batch)
{
    vm::VectorBatchSource source(events, batch);
    sim::replayTrace(source, bank);
}

struct WorkloadTrace
{
    std::string name;
    std::vector<vm::TraceEvent> events;
};

/** Smoke-scale traces, recorded once and replayed into every config. */
const std::vector<WorkloadTrace> &
traces()
{
    static const std::vector<WorkloadTrace> cached = [] {
        workloads::WorkloadConfig config;
        config.scale = 5;
        std::vector<WorkloadTrace> out;
        for (const auto &info : workloads::allWorkloads()) {
            WorkloadTrace trace;
            trace.name = info.name;
            vm::RecordingSink sink;
            vm::Machine machine;
            machine.setSink(&sink);
            EXPECT_TRUE(machine.run(info.build(config)).ok())
                    << info.name;
            trace.events = std::move(sink.events);
            out.push_back(std::move(trace));
        }
        return out;
    }();
    return cached;
}

void
expectIdenticalStats(const PredictionStats &batched,
                     const PredictionStats &scalar)
{
    EXPECT_EQ(batched.total(), scalar.total());
    EXPECT_EQ(batched.predicted(), scalar.predicted());
    EXPECT_EQ(batched.correct(), scalar.correct());
    for (int c = 0; c < isa::numCategories; ++c) {
        const auto cat = static_cast<isa::Category>(c);
        EXPECT_EQ(batched.total(cat), scalar.total(cat))
                << "category " << c;
        EXPECT_EQ(batched.predicted(cat), scalar.predicted(cat))
                << "category " << c;
        EXPECT_EQ(batched.correct(cat), scalar.correct(cat))
                << "category " << c;
    }
}

/**
 * Every spec family and decoration the grammar can express, at table
 * sizes small enough that the smoke traces force real evictions and
 * partial-tag aliasing on the bounded ones.
 */
const std::vector<std::string> &
specsUnderTest()
{
    static const std::vector<std::string> specs = {
        // Unbounded families.
        "l", "l-sat", "s2", "s-sat", "fcm1", "fcm3", "fcm2-pure",
        "fcm2-full",
        // Bounded, across associativity / replacement / partial tags.
        "l@64x2", "l@32x4r", "s2@64x4f", "s2@32xfa", "l@64x2%8",
        "fcm2@64/256x4", "fcm2@32/128x2%10",
        // Confidence-gated, unbounded and bounded inners.
        "fcm3:c2t2", "l@64x2:c1t1d",
        // Hybrids: legacy unbounded, fully bounded with a bounded
        // chooser, and a gated hybrid.
        "hybrid",
        "hybrid(s2@64x2,fcm2@64/256x4;ch@64x2)",
        "hybrid(s2,fcm2):c2t3",
    };
    return specs;
}

TEST(BatchedEquivalence, EveryFamilyMatchesScalarAtEveryBatchSize)
{
    for (const auto &trace : traces()) {
        SCOPED_TRACE(trace.name);

        for (const auto &spec : specsUnderTest()) {
            SCOPED_TRACE(spec);

            sim::PredictorBank scalar;
            scalar.add(exp::makePredictor(spec));
            sim::replayTrace(trace.events, scalar);

            for (const size_t batch : kBatchSizes) {
                SCOPED_TRACE("batch " + std::to_string(batch));

                sim::PredictorBank batched;
                batched.add(exp::makePredictor(spec));
                replayBatched(trace.events, batched, batch);

                expectIdenticalStats(batched.member(0).stats,
                                     scalar.member(0).stats);
                EXPECT_EQ(batched.member(0).predictor->tableEntries(),
                          scalar.member(0).predictor->tableEntries());
            }
        }
    }
}

/** Build the Figure 8/9/10 bank: {l, s2, fcm3} with every tracker. */
sim::PredictorBank
makeTrackedBank()
{
    sim::PredictorBank bank;
    bank.add(exp::makePredictor("l"));
    bank.add(exp::makePredictor("s2"));
    bank.add(exp::makePredictor("fcm3"));
    bank.trackOverlap(3);
    bank.trackImprovement(2, 1);        // fcm vs stride, Figure 9
    bank.trackValues();
    return bank;
}

TEST(BatchedEquivalence, TrackersMatchScalarBitForBit)
{
    for (const auto &trace : traces()) {
        SCOPED_TRACE(trace.name);

        auto scalar = makeTrackedBank();
        sim::replayTrace(trace.events, scalar);

        for (const size_t batch : kBatchSizes) {
            SCOPED_TRACE("batch " + std::to_string(batch));

            auto batched = makeTrackedBank();
            replayBatched(trace.events, batched, batch);

            // Figure 8: every overlap bucket, overall and per category.
            ASSERT_NE(batched.overlap(), nullptr);
            EXPECT_EQ(batched.overlap()->total(),
                      scalar.overlap()->total());
            for (uint32_t mask = 0; mask < 8; ++mask) {
                EXPECT_EQ(batched.overlap()->bucket(mask),
                          scalar.overlap()->bucket(mask))
                        << "mask " << mask;
                for (int c = 0; c < isa::numCategories; ++c) {
                    const auto cat = static_cast<isa::Category>(c);
                    EXPECT_EQ(batched.overlap()->bucket(cat, mask),
                              scalar.overlap()->bucket(cat, mask))
                            << "mask " << mask << " category " << c;
                }
            }

            // Figure 9: identical per-PC cells give an identical curve.
            ASSERT_NE(batched.improvement(), nullptr);
            EXPECT_EQ(batched.improvement()->staticCount(),
                      scalar.improvement()->staticCount());
            const auto curve_b = batched.improvement()->curve();
            const auto curve_s = scalar.improvement()->curve();
            ASSERT_EQ(curve_b.size(), curve_s.size());
            for (size_t i = 0; i < curve_b.size(); ++i) {
                EXPECT_EQ(curve_b[i].staticPct, curve_s[i].staticPct);
                EXPECT_EQ(curve_b[i].improvementPct,
                          curve_s[i].improvementPct);
            }

            // Figure 10: identical unique-value distributions.
            ASSERT_NE(batched.values(), nullptr);
            EXPECT_EQ(batched.values()->staticCount(),
                      scalar.values()->staticCount());
            const auto dist_b = batched.values()->distribution();
            const auto dist_s = scalar.values()->distribution();
            for (int b = 0; b < ValueProfiler::numBuckets; ++b) {
                EXPECT_EQ(dist_b.staticShare[b], dist_s.staticShare[b])
                        << "bucket " << b;
                EXPECT_EQ(dist_b.dynamicShare[b], dist_s.dynamicShare[b])
                        << "bucket " << b;
            }
        }
    }
}

/**
 * The bounded tables' replacement and touch-side aliasing behaviour
 * is part of the observable contract: evictions, aliased touches and
 * the constructive/destructive classification must all match.
 * (aliasedPeeks is deliberately *not* compared: the batch path elides
 * the duplicate probes that counter diagnoses.)
 */
TEST(BatchedEquivalence, BoundedCountersMatchScalar)
{
    BoundedTableConfig tiny;
    tiny.entries = 32;
    tiny.ways = 2;
    tiny.tagBits = 8;       // force partial-tag aliasing

    BoundedFcmConfig fcm_config;
    fcm_config.fcm.order = 2;
    fcm_config.vht = tiny;
    fcm_config.vpt = {.entries = 128, .ways = 2, .tagBits = 10};

    for (const auto &trace : traces()) {
        SCOPED_TRACE(trace.name);

        sim::PredictorBank scalar;
        auto lv_s = std::make_unique<BoundedLastValuePredictor>(
                LvConfig{}, tiny);
        auto fcm_s = std::make_unique<BoundedFcmPredictor>(fcm_config);
        const auto *lv_sp = lv_s.get();
        const auto *fcm_sp = fcm_s.get();
        scalar.add(std::move(lv_s));
        scalar.add(std::move(fcm_s));
        sim::replayTrace(trace.events, scalar);

        for (const size_t batch : kBatchSizes) {
            SCOPED_TRACE("batch " + std::to_string(batch));

            sim::PredictorBank batched;
            auto lv_b = std::make_unique<BoundedLastValuePredictor>(
                    LvConfig{}, tiny);
            auto fcm_b = std::make_unique<BoundedFcmPredictor>(
                    fcm_config);
            const auto *lv_bp = lv_b.get();
            const auto *fcm_bp = fcm_b.get();
            batched.add(std::move(lv_b));
            batched.add(std::move(fcm_b));
            replayBatched(trace.events, batched, batch);

            EXPECT_EQ(lv_bp->evictions(), lv_sp->evictions());
            EXPECT_EQ(lv_bp->table().aliasedTouches(),
                      lv_sp->table().aliasedTouches());
            EXPECT_EQ(lv_bp->table().aliasConstructive(),
                      lv_sp->table().aliasConstructive());
            EXPECT_EQ(lv_bp->table().aliasDestructive(),
                      lv_sp->table().aliasDestructive());

            EXPECT_EQ(fcm_bp->vhtEvictions(), fcm_sp->vhtEvictions());
            EXPECT_EQ(fcm_bp->vptEvictions(), fcm_sp->vptEvictions());
            EXPECT_EQ(fcm_bp->vptAliasedTouches(),
                      fcm_sp->vptAliasedTouches());
            EXPECT_EQ(fcm_bp->vptAliasConstructive(),
                      fcm_sp->vptAliasConstructive());
            EXPECT_EQ(fcm_bp->vptAliasDestructive(),
                      fcm_sp->vptAliasDestructive());

            expectIdenticalStats(batched.member(0).stats,
                                 scalar.member(0).stats);
            expectIdenticalStats(batched.member(1).stats,
                                 scalar.member(1).stats);
        }
    }
}

/** The default onBatch loops onValue: a sink without a batch override
 *  sees batched input with scalar semantics. */
TEST(BatchedEquivalence, DefaultOnBatchForwardsToOnValue)
{
    const auto &trace = traces().front();
    vm::RecordingSink scalar;
    for (const auto &event : trace.events)
        scalar.onValue(event);

    vm::RecordingSink batched;
    vm::VectorBatchSource source(trace.events, 7);
    for (;;) {
        const vm::TraceSpan span = source.nextBatch();
        if (span.empty())
            break;
        batched.onBatch(span);
    }

    ASSERT_EQ(batched.events.size(), scalar.events.size());
    for (size_t i = 0; i < batched.events.size(); ++i) {
        EXPECT_EQ(batched.events[i].pc, scalar.events[i].pc);
        EXPECT_EQ(batched.events[i].value, scalar.events[i].value);
    }
}

} // namespace
