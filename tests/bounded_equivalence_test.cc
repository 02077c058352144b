/**
 * @file
 * Bounded-vs-unbounded equivalence properties over every workload
 * trace:
 *
 *  - a bounded predictor whose tables are large enough never to evict
 *    (asserted: every table reports zero evictions) produces
 *    *identical* per-category stats to its unbounded counterpart (the
 *    bounded machinery adds capacity pressure and nothing else);
 *  - starved configurations (tiny tables, every associativity and
 *    replacement policy) never crash and never beat the unbounded
 *    idealisation overall;
 *  - the capacity sweep's largest budget matches the unbounded
 *    accuracy within 0.1 percentage points per workload and family
 *    (the vpexp-capacity acceptance bar);
 *  - the bounded spec grammar round-trips through predictor names.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>

#include "core/bounded.hh"
#include "core/fcm.hh"
#include "core/hybrid.hh"
#include "core/last_value.hh"
#include "core/stride.hh"
#include "exp/capacity.hh"
#include "exp/experiment.hh"
#include "exp/suite.hh"
#include "sim/driver.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace {

using namespace vp;
using namespace vp::core;

struct WorkloadTrace
{
    std::string name;
    std::vector<vm::TraceEvent> events;
    size_t staticCount = 0;
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
            const auto prog = info.build(config);
            trace.staticCount = prog.countPredictedStatic();
            vm::RecordingSink sink;
            vm::Machine machine;
            machine.setSink(&sink);
            EXPECT_TRUE(machine.run(prog).ok()) << info.name;
            trace.events = std::move(sink.events);
            out.push_back(std::move(trace));
        }
        return out;
    }();
    return cached;
}

/**
 * The paper's predict-then-update protocol over a recorded trace,
 * through the same PredictorBank path the experiment suite uses. The
 * predictor's counters go to @p counters when one is given.
 */
PredictionStats
runOver(PredictorPtr pred, const std::vector<vm::TraceEvent> &events,
        CounterSink *counters = nullptr)
{
    sim::PredictorBank bank;
    bank.add(std::move(pred));
    vm::VectorBatchSource source(events, 1);
    sim::replayTrace(source, bank);
    if (counters != nullptr)
        bank.member(0).predictor->collectCounters(*counters);
    return bank.member(0).stats;
}

/** Every counter the stats object holds, not just the accuracy. */
void
expectIdenticalStats(const PredictionStats &bounded,
                     const PredictionStats &unbounded)
{
    EXPECT_EQ(bounded.total(), unbounded.total());
    EXPECT_EQ(bounded.correct(), unbounded.correct());
    for (int c = 0; c < isa::numCategories; ++c) {
        const auto cat = static_cast<isa::Category>(c);
        EXPECT_EQ(bounded.total(cat), unbounded.total(cat))
                << "category " << c;
        EXPECT_EQ(bounded.correct(cat), unbounded.correct(cat))
                << "category " << c;
    }
}

/** Sums the "*.evictions" counters of a predictor's tables. */
class EvictionSink : public CounterSink
{
  public:
    void
    counter(const std::string &name, uint64_t value) override
    {
        if (name.ends_with(".evictions")) {
            ++tables;
            evictions += value;
        }
    }

    void gauge(const std::string &, uint64_t) override {}
    void distribution(const std::string &, uint64_t, uint64_t) override {}

    size_t tables = 0;
    uint64_t evictions = 0;
};

/**
 * runOver() for a bounded predictor on ampleTable()s: also checks the
 * premise of the equivalence, that none of its @p tables evicted.
 */
PredictionStats
runAmple(PredictorPtr pred, const std::vector<vm::TraceEvent> &events,
         size_t tables)
{
    EvictionSink sink;
    const PredictionStats stats = runOver(std::move(pred), events, &sink);
    EXPECT_EQ(sink.tables, tables);
    EXPECT_EQ(sink.evictions, 0u);
    return stats;
}

/** The idealised geometry for @p keys keys: 16 ways and a power-of-two
 *  entry count of at least 4x the keys, too loose to evict. */
BoundedTableConfig
ampleTable(size_t keys)
{
    BoundedTableConfig config;
    config.entries = std::bit_ceil(std::max<size_t>(4 * keys, 16));
    config.ways = 16;
    return config;
}

TEST(BoundedEquivalence, LastValueMatchesUnboundedExactly)
{
    for (const auto &trace : traces()) {
        SCOPED_TRACE(trace.name);
        for (const LvPolicy policy :
             {LvPolicy::AlwaysUpdate, LvPolicy::SaturatingCounter,
              LvPolicy::Consecutive}) {
            LvConfig config;
            config.policy = policy;
            const auto a = runOver(
                    std::make_unique<LastValuePredictor>(config),
                    trace.events);
            const auto b = runAmple(
                    std::make_unique<BoundedLastValuePredictor>(
                            config, ampleTable(trace.staticCount)),
                    trace.events, 1);
            expectIdenticalStats(b, a);
        }
    }
}

TEST(BoundedEquivalence, StrideMatchesUnboundedExactly)
{
    for (const auto &trace : traces()) {
        SCOPED_TRACE(trace.name);
        for (const StridePolicy policy :
             {StridePolicy::Simple, StridePolicy::SaturatingCounter,
              StridePolicy::TwoDelta}) {
            StrideConfig config;
            config.policy = policy;
            const auto a = runOver(
                    std::make_unique<StridePredictor>(config),
                    trace.events);
            const auto b = runAmple(
                    std::make_unique<BoundedStridePredictor>(
                            config, ampleTable(trace.staticCount)),
                    trace.events, 1);
            expectIdenticalStats(b, a);
        }
    }
}

TEST(BoundedEquivalence, FcmMatchesUnboundedExactly)
{
    for (const auto &trace : traces()) {
        SCOPED_TRACE(trace.name);
        for (const FcmBlending blending :
             {FcmBlending::LazyExclusion, FcmBlending::Full,
              FcmBlending::None}) {
            FcmConfig fcm;
            fcm.order = 3;
            fcm.blending = blending;

            // Size the VPT off the unbounded context footprint: its
            // tableEntries() is exactly the number of distinct
            // (pc, order, context) tuples the bounded VPT will key.
            sim::PredictorBank bank;
            bank.add(std::make_unique<FcmPredictor>(fcm));
            vm::VectorBatchSource source(trace.events, 1);
            sim::replayTrace(source, bank);
            const auto a = bank.member(0).stats;
            const size_t contexts =
                    bank.member(0).predictor->tableEntries();

            BoundedFcmConfig config;
            config.fcm = fcm;
            config.vht = ampleTable(trace.staticCount);
            config.vpt = ampleTable(contexts + 1);
            config.maxFollowers = 0;
            const auto b = runAmple(
                    std::make_unique<BoundedFcmPredictor>(config),
                    trace.events, 2);
            expectIdenticalStats(b, a);
        }
    }
}

TEST(BoundedEquivalence, StarvedTablesNeverCrashAndNeverWin)
{
    struct Geometry
    {
        size_t entries;
        size_t ways;
        Replacement replacement;
    };
    const Geometry geometries[] = {
        {16, 1, Replacement::Lru},
        {16, 16, Replacement::Lru},
        {64, 4, Replacement::Lru},
        {64, 4, Replacement::Random},
        {64, 4, Replacement::Fifo},
        {32, 32, Replacement::Lru},
        {32, 32, Replacement::Fifo},
    };

    for (const auto &trace : traces()) {
        SCOPED_TRACE(trace.name);

        FcmConfig fcm3;
        fcm3.order = 3;
        const double lv_acc =
                runOver(std::make_unique<LastValuePredictor>(),
                        trace.events)
                        .accuracy();
        const double stride_acc =
                runOver(std::make_unique<StridePredictor>(),
                        trace.events)
                        .accuracy();
        const double fcm_acc =
                runOver(std::make_unique<FcmPredictor>(fcm3),
                        trace.events)
                        .accuracy();

        for (const auto &geometry : geometries) {
            SCOPED_TRACE(std::to_string(geometry.entries) + "x" +
                         std::to_string(geometry.ways));
            BoundedTableConfig table;
            table.entries = geometry.entries;
            table.ways = geometry.ways;
            table.replacement = geometry.replacement;

            const auto lv_stats = runOver(
                    std::make_unique<BoundedLastValuePredictor>(
                            LvConfig{}, table),
                    trace.events);
            EXPECT_EQ(lv_stats.total(), trace.events.size());
            EXPECT_LE(lv_stats.accuracy(), lv_acc);

            const auto stride_stats = runOver(
                    std::make_unique<BoundedStridePredictor>(
                            StrideConfig{}, table),
                    trace.events);
            EXPECT_LE(stride_stats.accuracy(), stride_acc);

            BoundedFcmConfig bounded_fcm;
            bounded_fcm.fcm = fcm3;
            bounded_fcm.vht = table;
            bounded_fcm.vpt = table;
            bounded_fcm.maxFollowers = 4;
            const auto fcm_stats = runOver(
                    std::make_unique<BoundedFcmPredictor>(bounded_fcm),
                    trace.events);
            EXPECT_LE(fcm_stats.accuracy(), fcm_acc);
        }
    }
}

/**
 * FIFO evicts by insertion order, not recency: re-touching an entry
 * saves it from LRU but not from FIFO.
 */
TEST(BoundedEquivalence, FifoEvictsOldestInsertionNotLeastRecent)
{
    for (const Replacement policy :
         {Replacement::Lru, Replacement::Fifo}) {
        SCOPED_TRACE(policy == Replacement::Lru ? "lru" : "fifo");
        BoundedTableConfig table;
        table.entries = 2;
        table.ways = 2;             // one set: pure victim-choice test
        table.replacement = policy;
        BoundedLastValuePredictor pred(LvConfig{}, table);

        pred.update(1, 10);         // insert A
        pred.update(2, 20);         // insert B
        pred.update(1, 11);         // touch A: most recent, oldest
        pred.update(3, 30);         // full set: LRU evicts B, FIFO A

        if (policy == Replacement::Lru) {
            EXPECT_TRUE(pred.predict(1).valid);
            EXPECT_EQ(pred.predict(1).value, 11u);
            EXPECT_FALSE(pred.predict(2).valid);
        } else {
            EXPECT_FALSE(pred.predict(1).valid);
            EXPECT_TRUE(pred.predict(2).valid);
            EXPECT_EQ(pred.predict(2).value, 20u);
        }
        EXPECT_TRUE(pred.predict(3).valid);
        EXPECT_EQ(pred.evictions(), 1u);
    }
}

/** An ample-capacity bounded hybrid: components and chooser sized
 *  never to evict, unbounded followers. */
std::unique_ptr<HybridPredictor>
ampleBoundedHybrid(const WorkloadTrace &trace, size_t fcm_contexts)
{
    BoundedFcmConfig fcm;
    fcm.fcm.order = 3;
    fcm.vht = ampleTable(trace.staticCount);
    fcm.vpt = ampleTable(fcm_contexts + 1);
    fcm.maxFollowers = 0;
    HybridChooser chooser;
    chooser.table = ampleTable(trace.staticCount);
    return std::make_unique<HybridPredictor>(
            std::make_unique<BoundedStridePredictor>(
                    StrideConfig{}, ampleTable(trace.staticCount)),
            std::make_unique<BoundedFcmPredictor>(fcm), chooser);
}

/**
 * The composed-hybrid equivalence: a bounded hybrid whose chooser and
 * both components have ample capacity is byte-identical to the
 * unbounded `hybrid` — composition adds capacity pressure and
 * nothing else.
 */
TEST(BoundedEquivalence, ComposedHybridMatchesUnboundedExactly)
{
    for (const auto &trace : traces()) {
        SCOPED_TRACE(trace.name);

        // Size the VPT off the unbounded fcm3 context footprint, as
        // the fcm equivalence test does.
        FcmConfig fcm3;
        fcm3.order = 3;
        sim::PredictorBank bank;
        bank.add(std::make_unique<FcmPredictor>(fcm3));
        vm::VectorBatchSource source(trace.events, 1);
        sim::replayTrace(source, bank);
        const size_t contexts = bank.member(0).predictor->tableEntries();

        const auto unbounded = runOver(
                std::make_unique<HybridPredictor>(), trace.events);
        const auto bounded = runAmple(
                ampleBoundedHybrid(trace, contexts), trace.events, 4);
        expectIdenticalStats(bounded, unbounded);
    }
}

/**
 * Starved chooser geometries: components at ample capacity, chooser
 * tiny. Misrouting loses accuracy but never crashes and never beats
 * the unbounded hybrid (an evicted chooser counter restarts from the
 * init bias — it can only forget which component to trust).
 */
TEST(BoundedEquivalence, StarvedChoosersNeverCrashAndNeverWin)
{
    const BoundedTableConfig chooser_geometries[] = {
        {.entries = 2, .ways = 1},
        {.entries = 4, .ways = 4},
        {.entries = 16, .ways = 4,
         .replacement = Replacement::Fifo},
        {.entries = 16, .ways = 4,
         .replacement = Replacement::Random},
        {.entries = 8, .ways = 8},
        {.entries = 64, .ways = 4, .tagBits = 4},
    };

    for (const auto &trace : traces()) {
        SCOPED_TRACE(trace.name);

        FcmConfig fcm3;
        fcm3.order = 3;
        const auto unbounded = runOver(
                std::make_unique<HybridPredictor>(), trace.events);

        for (const auto &geometry : chooser_geometries) {
            SCOPED_TRACE(std::to_string(geometry.entries) + "x" +
                         std::to_string(geometry.ways) + "%" +
                         std::to_string(geometry.tagBits));
            HybridChooser chooser;
            chooser.table = geometry;
            auto hybrid = std::make_unique<HybridPredictor>(
                    std::make_unique<BoundedStridePredictor>(
                            StrideConfig{},
                            ampleTable(trace.staticCount)),
                    std::make_unique<FcmPredictor>(fcm3), chooser);
            const auto stats = runOver(std::move(hybrid), trace.events);
            EXPECT_EQ(stats.total(), trace.events.size());
            EXPECT_LE(stats.accuracy(), unbounded.accuracy());
        }
    }
}

/**
 * A tag wide enough to cover every live key bit is lossless: PCs are
 * far below 2^48, so a 48-bit partial tag can never alias and the
 * stats are byte-identical to the full-key table.
 */
TEST(BoundedEquivalence, CoveringTagWidthIsLossless)
{
    BoundedTableConfig full;
    full.entries = 1024;
    full.ways = 4;
    BoundedTableConfig tagged = full;
    tagged.tagBits = 48;

    for (const auto &trace : traces()) {
        SCOPED_TRACE(trace.name);
        expectIdenticalStats(
                runOver(std::make_unique<BoundedLastValuePredictor>(
                                LvConfig{}, tagged),
                        trace.events),
                runOver(std::make_unique<BoundedLastValuePredictor>(
                                LvConfig{}, full),
                        trace.events));
        expectIdenticalStats(
                runOver(std::make_unique<BoundedStridePredictor>(
                                StrideConfig{}, tagged),
                        trace.events),
                runOver(std::make_unique<BoundedStridePredictor>(
                                StrideConfig{}, full),
                        trace.events));
    }
}

/**
 * The aliasing counters, on a crafted collision: PCs 0x10, 0x20 and
 * 0x30 share the low-4-bit tag 0, so a 1-entry table with 4-bit tags
 * treats them as one entry — hits on a foreign entry count as
 * aliased, and the update classifies the foreign prediction as
 * constructive (it happened to be right) or destructive.
 */
TEST(BoundedEquivalence, AliasCountersClassifyCollisions)
{
    BoundedTableConfig table;
    table.entries = 1;
    table.ways = 1;
    table.tagBits = 4;
    BoundedLastValuePredictor pred(LvConfig{}, table);

    pred.update(0x10, 7);               // owner: 0x10
    EXPECT_EQ(pred.table().aliasedTouches(), 0u);

    // 0x20 aliases: served 0x10's value, and it happens to be right.
    EXPECT_TRUE(pred.predict(0x20).valid);
    EXPECT_EQ(pred.predict(0x20).value, 7u);
    pred.update(0x20, 7);
    EXPECT_EQ(pred.table().aliasedTouches(), 1u);
    EXPECT_EQ(pred.table().aliasConstructive(), 1u);
    EXPECT_EQ(pred.table().aliasDestructive(), 0u);
    EXPECT_GE(pred.table().aliasedPeeks(), 2u);

    // 0x30 aliases destructively: the foreign value is wrong.
    pred.update(0x30, 9);
    EXPECT_EQ(pred.table().aliasedTouches(), 2u);
    EXPECT_EQ(pred.table().aliasConstructive(), 1u);
    EXPECT_EQ(pred.table().aliasDestructive(), 1u);

    // The re-bound owner predicts its own value; no new alias.
    EXPECT_EQ(pred.predict(0x30).value, 9u);
    pred.update(0x30, 9);
    EXPECT_EQ(pred.table().aliasedTouches(), 2u);

    // Aliasing never inflates the entry count: one slot, whatever
    // the tag width claims (the §4.3 accounting honesty).
    EXPECT_EQ(pred.tableEntries(), 1u);

    pred.reset();
    EXPECT_EQ(pred.table().aliasedTouches(), 0u);
    EXPECT_EQ(pred.table().aliasConstructive(), 0u);
}

/**
 * The fcm VPT's alias counters stay consistent under forced
 * collisions: a one-entry VPT with 1-bit tags makes distinct context
 * hashes alias whenever their low bits agree (guaranteed among the
 * six (pc, order) contexts by pigeonhole), and every aliased touch is
 * classified as exactly one of constructive or destructive.
 */
TEST(BoundedEquivalence, FcmVptAliasCountersStayConsistent)
{
    BoundedFcmConfig config;
    config.fcm.order = 1;
    config.vht = {.entries = 8, .ways = 8};
    config.vpt = {.entries = 1, .ways = 1, .tagBits = 1};
    config.maxFollowers = 4;
    BoundedFcmPredictor pred(config);

    for (int round = 0; round < 32; ++round) {
        for (const uint64_t pc : {1u, 2u, 3u})
            pred.update(pc, pc == 3 ? 9 : 7);
    }
    EXPECT_GT(pred.vptAliasedTouches(), 0u);
    EXPECT_EQ(pred.vptAliasedTouches(),
              pred.vptAliasConstructive() + pred.vptAliasDestructive());

    pred.reset();
    EXPECT_EQ(pred.vptAliasedTouches(), 0u);
    EXPECT_EQ(pred.vptAliasConstructive() + pred.vptAliasDestructive(),
              0u);
}

/** The vpexp-capacity acceptance bar, asserted rather than printed. */
TEST(CapacitySweep, LargestBudgetConvergesToUnbounded)
{
    exp::SuiteOptions options = exp::capacitySweepOptions();
    options.config.scale = 5;
    exp::CellScheduler scheduler(exp::ExperimentConfig{});
    const auto runs = scheduler.suite(options);
    const auto &families = exp::capacityFamilies();
    const size_t largest = exp::capacitySweepPoints().size() - 1;

    ASSERT_EQ(runs.size(), workloads::allWorkloads().size());
    for (const auto &run : runs) {
        SCOPED_TRACE(run.name);
        for (size_t f = 0; f < families.size(); ++f) {
            SCOPED_TRACE(families[f]);
            const double bounded =
                    run.accuracyPct(exp::capacitySpecIndex(f, largest));
            const double unbounded =
                    run.accuracyPct(exp::capacityUnboundedIndex(f));
            EXPECT_NEAR(bounded, unbounded, 0.1);
        }
    }
}

TEST(BoundedSpecs, NamesRoundTripThroughTheGrammar)
{
    for (const char *spec :
         {"l@1024x4", "l-sat@1024x4", "l-consec@256x2", "s@512x4",
          "s2@256x2r", "s2@256x2f", "s2@64x64", "fcm3@256/1024x4",
          "fcm2-pure@64/256x4", "fcm1-full@64/256x2r",
          "fcm3@256/1024x4f", "fcm2-sat@64/256x4"}) {
        EXPECT_EQ(exp::makePredictor(spec)->name(), spec);
    }
}

TEST(BoundedSpecs, RejectsMalformedBudgets)
{
    for (const char *spec :
         {"l@", "l@abc", "l@256/1024x4", "s2@0x4", "s2@256x3",
          "fcm3@256x4", "fcm3@256/0x4", "hybrid@256x4", "l@256x4q",
          "l@256x0", "l@99999999999999999999x4", "fcm99999999999999",
          "fcm99999999999999@64/256x4", "s2@64xfa", "fcm3@64/256xfa"}) {
        EXPECT_THROW(exp::makePredictor(spec), std::invalid_argument)
                << spec;
    }
}

} // anonymous namespace
