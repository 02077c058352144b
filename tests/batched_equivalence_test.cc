/**
 * @file
 * Batched-vs-scalar replay equivalence over every workload trace.
 *
 * The batched hot path (PredictorBank::onBatch, the per-family
 * evalBatch loops) promises *bit-identical* observable behaviour to
 * the per-event predict-then-update protocol: the same
 * PredictionStats, the same overlap/improvement/value-profile tracker
 * state, the same table occupancy, evictions and touch-side aliasing
 * counters — for every predictor family, bounded and unbounded, gated
 * and ungated, hybrids with bounded choosers, at every batch size.
 * The only sanctioned divergence is the aliasedPeeks() diagnostic,
 * which counts probes the batch path legitimately elides.
 *
 * The reference is each standalone predictor's own predict()/update()
 * loop (scalarReplay below), not a bank: the bank has one evaluation
 * path, and its one-event onValue() is batch size 1 of it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
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
 *  event, an odd size straddling word boundaries, two powers of two
 *  below the production span, and the production span. */
constexpr size_t kBatchSizes[] = {1, 7, 64, 4096, vm::kReplaySpan};

/** Streaming replay of an in-memory trace in spans of @p batch. */
void
replayBatched(const std::vector<vm::TraceEvent> &events,
              sim::PredictorBank &bank, size_t batch)
{
    vm::VectorBatchSource source(events, batch);
    sim::replayTrace(source, bank);
}

/**
 * The per-event reference protocol on one standalone predictor:
 * predict, grade, update — the loop in core/predictor.hh.
 */
PredictionStats
scalarReplay(const std::vector<vm::TraceEvent> &events,
             ValuePredictor &pred)
{
    PredictionStats stats;
    for (const auto &event : events) {
        const Prediction p = pred.predict(event.pc);
        stats.record(event.cat, p.valid,
                     p.valid && p.value == event.value);
        pred.update(event.pc, event.value);
    }
    return stats;
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

/** A predictor's counters by name (a distribution's by name and
 *  value), less the probe telemetry (probes, probe depths, aliased
 *  peeks), which the batch path lowers by eliding probes. */
std::map<std::string, uint64_t>
observableCounters(const ValuePredictor &pred)
{
    struct MapSink : CounterSink
    {
        std::map<std::string, uint64_t> values;

        static bool
        probeTelemetry(const std::string &name)
        {
            for (const char *tail : {"probes", "probe_depth",
                                     "aliased_peeks"}) {
                const std::string t = tail;
                if (name.size() >= t.size() &&
                    name.compare(name.size() - t.size(), t.size(), t) == 0)
                    return true;
            }
            return false;
        }

        void
        counter(const std::string &name, uint64_t value) override
        {
            if (!probeTelemetry(name))
                values[name] += value;
        }

        void
        gauge(const std::string &name, uint64_t value) override
        {
            if (!probeTelemetry(name))
                values[name] = std::max(values[name], value);
        }

        void
        distribution(const std::string &name, uint64_t value,
                     uint64_t count) override
        {
            if (!probeTelemetry(name))
                values[name + "[" + std::to_string(value) + "]"] += count;
        }
    } sink;
    pred.collectCounters(sink);
    return sink.values;
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
        "l@64x2", "l@32x4r", "s2@64x4f", "s2@32x32", "l@64x2%8",
        "fcm2@64/256x4", "fcm2@32/128x2%10",
        // 16-way bounded fcm, the studies' geometry: grouped control
        // byte probes and last-ranked victims. A VPT of 3, 8 or 12
        // sets puts several orders of one event in one set, so the
        // batch loop's carried scan misses meet inserts of the same
        // event there (with 4-bit tags, turning a miss into an
        // aliased hit); Full blending also trains orders below the
        // scan.
        "fcm3@16/48x16%4", "fcm2-full@32/128x16f", "fcm3@64/192x16r",
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
    // Some trace must replay as several full production spans and a
    // short tail: xlisp's smoke trace is about 2.8 spans long.
    ASSERT_TRUE(std::any_of(
            traces().begin(), traces().end(), [](const auto &trace) {
                return trace.events.size() > 2 * vm::kReplaySpan &&
                       trace.events.size() % vm::kReplaySpan != 0;
            }));

    for (const auto &trace : traces()) {
        SCOPED_TRACE(trace.name);

        for (const auto &spec : specsUnderTest()) {
            SCOPED_TRACE(spec);

            const auto scalar = exp::makePredictor(spec);
            const PredictionStats scalar_stats =
                    scalarReplay(trace.events, *scalar);

            for (const size_t batch : kBatchSizes) {
                SCOPED_TRACE("batch " + std::to_string(batch));

                sim::PredictorBank batched;
                batched.add(exp::makePredictor(spec));
                replayBatched(trace.events, batched, batch);

                expectIdenticalStats(batched.member(0).stats,
                                     scalar_stats);
                EXPECT_EQ(batched.member(0).predictor->tableEntries(),
                          scalar->tableEntries());
                // Evictions, occupancy and touch-side aliasing too.
                EXPECT_EQ(observableCounters(*batched.member(0).predictor),
                          observableCounters(*scalar));
            }
        }
    }
}

/** The Figure 8/9/10 members: {l, s2, fcm3}. */
const std::vector<std::string> kTrackedSpecs = {"l", "s2", "fcm3"};

/** Build the Figure 8/9/10 bank: kTrackedSpecs with every tracker. */
sim::PredictorBank
makeTrackedBank()
{
    sim::PredictorBank bank;
    exp::addSpecs(bank, kTrackedSpecs);
    bank.trackOverlap(3);
    bank.trackImprovement(2, 1);        // fcm vs stride, Figure 9
    bank.trackValues();
    return bank;
}

/** The reference trackers, fed by the three predictors' own
 *  per-event protocol, event-major. */
struct ScalarTrackers
{
    OverlapTracker overlap{3};
    ImprovementTracker improvement;
    ValueProfiler values;
};

ScalarTrackers
scalarTrackers(const std::vector<vm::TraceEvent> &events)
{
    std::vector<PredictorPtr> preds;
    for (const auto &spec : kTrackedSpecs)
        preds.push_back(exp::makePredictor(spec));
    ScalarTrackers out;
    for (const auto &event : events) {
        bool correct[3] = {};
        uint32_t mask = 0;
        for (size_t m = 0; m < preds.size(); ++m) {
            const Prediction p = preds[m]->predict(event.pc);
            correct[m] = p.valid && p.value == event.value;
            mask |= correct[m] ? 1u << m : 0u;
            preds[m]->update(event.pc, event.value);
        }
        out.overlap.record(event.cat, mask);
        out.improvement.record(event.pc, event.cat, correct[2],
                               correct[1]);
        out.values.record(event.pc, event.cat, event.value);
    }
    return out;
}

TEST(BatchedEquivalence, TrackersMatchScalarBitForBit)
{
    for (const auto &trace : traces()) {
        SCOPED_TRACE(trace.name);

        const ScalarTrackers scalar = scalarTrackers(trace.events);

        for (const size_t batch : kBatchSizes) {
            SCOPED_TRACE("batch " + std::to_string(batch));

            auto batched = makeTrackedBank();
            replayBatched(trace.events, batched, batch);

            // Figure 8: every overlap bucket, overall and per category.
            ASSERT_NE(batched.overlap(), nullptr);
            EXPECT_EQ(batched.overlap()->total(),
                      scalar.overlap.total());
            for (uint32_t mask = 0; mask < 8; ++mask) {
                EXPECT_EQ(batched.overlap()->bucket(mask),
                          scalar.overlap.bucket(mask))
                        << "mask " << mask;
                for (int c = 0; c < isa::numCategories; ++c) {
                    const auto cat = static_cast<isa::Category>(c);
                    EXPECT_EQ(batched.overlap()->bucket(cat, mask),
                              scalar.overlap.bucket(cat, mask))
                            << "mask " << mask << " category " << c;
                }
            }

            // Figure 9: identical per-PC cells give an identical curve.
            ASSERT_NE(batched.improvement(), nullptr);
            EXPECT_EQ(batched.improvement()->staticCount(),
                      scalar.improvement.staticCount());
            const auto curve_b = batched.improvement()->curve();
            const auto curve_s = scalar.improvement.curve();
            ASSERT_EQ(curve_b.size(), curve_s.size());
            for (size_t i = 0; i < curve_b.size(); ++i) {
                EXPECT_EQ(curve_b[i].staticPct, curve_s[i].staticPct);
                EXPECT_EQ(curve_b[i].improvementPct,
                          curve_s[i].improvementPct);
            }

            // Figure 10: identical unique-value distributions.
            ASSERT_NE(batched.values(), nullptr);
            EXPECT_EQ(batched.values()->staticCount(),
                      scalar.values.staticCount());
            const auto dist_b = batched.values()->distribution();
            const auto dist_s = scalar.values.distribution();
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

        BoundedLastValuePredictor lv_s(LvConfig{}, tiny);
        BoundedFcmPredictor fcm_s(fcm_config);
        const PredictionStats lv_stats = scalarReplay(trace.events, lv_s);
        const PredictionStats fcm_stats =
                scalarReplay(trace.events, fcm_s);

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

            EXPECT_EQ(lv_bp->evictions(), lv_s.evictions());
            EXPECT_EQ(lv_bp->table().aliasedTouches(),
                      lv_s.table().aliasedTouches());
            EXPECT_EQ(lv_bp->table().aliasConstructive(),
                      lv_s.table().aliasConstructive());
            EXPECT_EQ(lv_bp->table().aliasDestructive(),
                      lv_s.table().aliasDestructive());

            EXPECT_EQ(fcm_bp->vhtEvictions(), fcm_s.vhtEvictions());
            EXPECT_EQ(fcm_bp->vptEvictions(), fcm_s.vptEvictions());
            EXPECT_EQ(fcm_bp->vptAliasedTouches(),
                      fcm_s.vptAliasedTouches());
            EXPECT_EQ(fcm_bp->vptAliasConstructive(),
                      fcm_s.vptAliasConstructive());
            EXPECT_EQ(fcm_bp->vptAliasDestructive(),
                      fcm_s.vptAliasDestructive());

            expectIdenticalStats(batched.member(0).stats, lv_stats);
            expectIdenticalStats(batched.member(1).stats, fcm_stats);
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
