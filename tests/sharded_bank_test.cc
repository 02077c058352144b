/**
 * @file
 * Tests for the sharded multi-tenant bank map, one bank per tenant:
 * per-tenant statistics byte-identical to a serial single-bank
 * replay, under one thread and under 1..8 concurrent client threads;
 * vpd's per-event PREDICT+TRAIN sequence against a standalone
 * predictor's own predict()/update() loop; PREDICT for an unseen
 * tenant building no bank; contention accounting. The TSAN CI
 * configuration re-runs the concurrent cases under ThreadSanitizer.
 */

#include <gtest/gtest.h>

#include <thread>
#include <vector>

#include "exp/suite.hh"
#include "net/protocol.hh"
#include "net/sharded_bank.hh"
#include "obs/registry.hh"
#include "sim/driver.hh"
#include "synth/sequences.hh"

namespace {

using namespace vp;
using vm::TraceEvent;

/** A value stream with real structure (strides, repeats, noise). */
std::vector<TraceEvent>
sampleStream(size_t n, uint64_t seed)
{
    synth::Rng rng(seed);
    std::vector<TraceEvent> events;
    uint64_t counter = seed * 17;
    for (size_t i = 0; i < n; ++i) {
        TraceEvent event{};
        event.op = (i % 3 == 0) ? isa::Opcode::Add
                 : (i % 3 == 1) ? isa::Opcode::Ld
                                : isa::Opcode::Slli;
        event.cat = isa::opcodeCategory(event.op);
        event.pc = 8 * rng.range(64);
        switch (rng.range(3)) {
        case 0:
            event.value = counter += 4;     // stride
            break;
        case 1:
            event.value = event.pc * 3;     // last-value repeat
            break;
        default:
            event.value = rng.next();       // noise
            break;
        }
        events.push_back(event);
    }
    return events;
}

/** Serial single-bank replay reference for @p events. */
net::TenantStats
serialReference(const std::vector<TraceEvent> &events,
                const std::string &spec)
{
    sim::PredictorBank bank;
    bank.add(exp::makePredictor(spec));
    vm::VectorBatchSource source(events, 1);
    sim::replayTrace(source, bank);
    return net::TenantStats::from(bank.member(0).stats);
}

net::TenantStats
mapTenantStats(const net::ShardedBankMap &map, uint64_t tenant)
{
    const auto stats = map.tenantStats(tenant);
    EXPECT_TRUE(stats.has_value());
    return stats.has_value() ? net::TenantStats::from(*stats)
                             : net::TenantStats{};
}

TEST(ShardedBank, SingleTenantMatchesSerialReplayScalar)
{
    const auto events = sampleStream(4000, 11);
    for (const std::string spec : {"l", "s2", "fcm3"}) {
        SCOPED_TRACE(spec);
        net::ShardedBankConfig config;
        config.spec = spec;
        net::ShardedBankMap map(config);
        for (const auto &event : events)
            map.applyOne(5, event);
        EXPECT_EQ(mapTenantStats(map, 5),
                  serialReference(events, spec));
    }
}

TEST(ShardedBank, SingleTenantMatchesSerialReplayBatched)
{
    const auto events = sampleStream(4000, 12);
    for (const std::string spec :
         {"l", "s2", "fcm3", "fcm3@1024/4096x4"}) {
        SCOPED_TRACE(spec);
        net::ShardedBankConfig config;
        config.spec = spec;
        net::ShardedBankMap map(config);
        net::ShardedBankMap::BatchOutcome total;
        for (size_t i = 0; i < events.size(); i += 256) {
            const size_t n = std::min<size_t>(256, events.size() - i);
            const auto outcome = map.applyBatch(
                    9, vm::TraceSpan(events.data() + i, n));
            total.events += outcome.events;
            total.predicted += outcome.predicted;
            total.correct += outcome.correct;
        }
        const auto reference = serialReference(events, spec);
        EXPECT_EQ(mapTenantStats(map, 9), reference);
        // The per-frame outcome deltas must add up to the same totals.
        EXPECT_EQ(total.events, reference.total);
        EXPECT_EQ(total.predicted, reference.predicted);
        EXPECT_EQ(total.correct, reference.correct);
    }
}

TEST(ShardedBank, ScalarAndBatchedAgree)
{
    const auto events = sampleStream(3000, 13);
    net::ShardedBankConfig config;
    config.spec = "fcm3";
    net::ShardedBankMap scalar(config), batched(config);
    uint64_t scalarPredicted = 0, scalarCorrect = 0;
    for (const auto &event : events) {
        const auto outcome = scalar.applyOne(1, event);
        scalarPredicted += outcome.predicted;
        scalarCorrect += outcome.correct;
    }
    const auto outcome = batched.applyBatch(
            1, vm::TraceSpan(events.data(), events.size()));
    EXPECT_EQ(mapTenantStats(scalar, 1), mapTenantStats(batched, 1));
    EXPECT_EQ(outcome.predicted, scalarPredicted);
    EXPECT_EQ(outcome.correct, scalarCorrect);
}

TEST(ShardedBank, ConcurrentTenantsAreByteIdentical)
{
    // 1..8 client threads, each training its own tenant concurrently;
    // every tenant's statistics must match its serial reference
    // exactly — banks never bleed into each other across stripes.
    for (const unsigned threads : {1u, 2u, 4u, 8u}) {
        SCOPED_TRACE(threads);
        net::ShardedBankConfig config;
        config.spec = "fcm3";
        config.stripes = 4;     // force tenant collisions per stripe
        net::ShardedBankMap map(config);

        std::vector<std::vector<TraceEvent>> streams;
        for (unsigned t = 0; t < threads; ++t)
            streams.push_back(sampleStream(3000, 100 + t));

        std::vector<std::thread> workers;
        for (unsigned t = 0; t < threads; ++t) {
            workers.emplace_back([&, t] {
                const auto &events = streams[t];
                for (size_t i = 0; i < events.size(); i += 128) {
                    const size_t n =
                            std::min<size_t>(128, events.size() - i);
                    map.applyBatch(t, vm::TraceSpan(events.data() + i,
                                                    n));
                }
            });
        }
        for (auto &worker : workers)
            worker.join();

        for (unsigned t = 0; t < threads; ++t) {
            EXPECT_EQ(mapTenantStats(map, t),
                      serialReference(streams[t], "fcm3"))
                    << "tenant " << t;
        }
        EXPECT_EQ(map.bankCount(), threads);
    }
}

TEST(ShardedBank, MixedScalarBatchConcurrent)
{
    // Half the threads drive the scalar path, half the batched path,
    // all against distinct tenants on few stripes.
    constexpr unsigned kThreads = 6;
    net::ShardedBankConfig config;
    config.spec = "s2";
    config.stripes = 2;
    net::ShardedBankMap map(config);

    std::vector<std::vector<TraceEvent>> streams;
    for (unsigned t = 0; t < kThreads; ++t)
        streams.push_back(sampleStream(2000, 300 + t));

    std::vector<std::thread> workers;
    for (unsigned t = 0; t < kThreads; ++t) {
        workers.emplace_back([&, t] {
            const auto &events = streams[t];
            if (t % 2 == 0) {
                for (const auto &event : events)
                    map.applyOne(t, event);
            } else {
                map.applyBatch(t, vm::TraceSpan(events.data(),
                                                events.size()));
            }
        });
    }
    for (auto &worker : workers)
        worker.join();

    for (unsigned t = 0; t < kThreads; ++t) {
        EXPECT_EQ(mapTenantStats(map, t),
                  serialReference(streams[t], "s2"))
                << "tenant " << t;
    }
}

/** Specs covering every family vpd can serve: unbounded per-PC
 *  tables, unbounded and bounded fcm, a bounded fcm behind a
 *  confidence gate, and unbounded and fully bounded hybrids. */
const std::vector<std::string> kServedSpecs = {
        "l",
        "s2",
        "fcm3",
        "fcm3@1024/4096x4",
        "fcm3@256/1024x4:c3t6",
        "hybrid",
        "hybrid(s2@256x2,fcm3@256/1024x4;ch@512x4)"};

TEST(ShardedBank, PredictThenTrainMatchesTheScalarProtocol)
{
    // vpd's per-event call sequence (a PREDICT frame, then a TRAIN
    // frame) against a standalone predictor driven by its own
    // predict()/grade/update() loop, reply by reply.
    const auto events = sampleStream(3000, 51);
    for (const auto &spec : kServedSpecs) {
        SCOPED_TRACE(spec);
        net::ShardedBankConfig config;
        config.spec = spec;
        net::ShardedBankMap map(config);
        const auto reference = exp::makePredictor(spec);
        for (size_t i = 0; i < events.size(); ++i) {
            SCOPED_TRACE(i);
            const auto &event = events[i];

            const auto served = map.predict(4, event.pc);
            const auto expected = reference->predict(event.pc);
            ASSERT_EQ(served.valid, expected.valid);
            if (expected.valid)
                ASSERT_EQ(served.value, expected.value);

            const auto outcome = map.applyOne(4, event);
            const auto pred = reference->predict(event.pc);
            const bool correct = pred.valid && pred.value == event.value;
            reference->update(event.pc, event.value);
            ASSERT_EQ(outcome.predicted, pred.valid);
            ASSERT_EQ(outcome.correct, correct);
        }
    }
}

TEST(ShardedBank, PredictForAnUnseenTenantBuildsNoBank)
{
    for (const auto &spec : kServedSpecs) {
        SCOPED_TRACE(spec);
        net::ShardedBankConfig config;
        config.spec = spec;
        net::ShardedBankMap map(config);
        for (const uint64_t pc : {0ull, 64ull, 4096ull}) {
            // A cold bank predicts nothing, so answering without one
            // changes no reply.
            EXPECT_FALSE(exp::makePredictor(spec)->predict(pc).valid);
            for (uint64_t tenant = 1; tenant <= 100; ++tenant)
                EXPECT_FALSE(map.predict(tenant, pc).valid);
        }
        // An empty BATCH trains nothing and builds no bank either.
        EXPECT_EQ(map.applyBatch(1, vm::TraceSpan()).events, 0u);
        EXPECT_EQ(map.bankCount(), 0u);
        EXPECT_FALSE(map.tenantStats(1).has_value());
    }
}

TEST(ShardedBank, PredictDoesNotGradeStats)
{
    const auto events = sampleStream(500, 31);
    net::ShardedBankConfig config;
    config.spec = "l";
    net::ShardedBankMap map(config);
    map.applyBatch(2, vm::TraceSpan(events.data(), events.size()));
    const auto before = mapTenantStats(map, 2);
    for (int i = 0; i < 100; ++i)
        (void)map.predict(2, events[static_cast<size_t>(i) %
                                    events.size()]
                                     .pc);
    EXPECT_EQ(mapTenantStats(map, 2), before);
    EXPECT_FALSE(map.tenantStats(999).has_value());
}

TEST(ShardedBank, StripesRoundUpToPowerOfTwo)
{
    net::ShardedBankConfig config;
    config.spec = "l";
    config.stripes = 5;
    net::ShardedBankMap map(config);
    EXPECT_EQ(map.stripes(), 8u);

    config.stripes = 0;
    net::ShardedBankMap one(config);
    EXPECT_EQ(one.stripes(), 1u);
}

TEST(ShardedBank, RejectsBadSpecEagerly)
{
    net::ShardedBankConfig config;
    config.spec = "definitely-not-a-predictor";
    EXPECT_THROW(net::ShardedBankMap{config}, std::exception);
}

TEST(ShardedBank, CollectExportsShardMetrics)
{
    net::ShardedBankConfig config;
    config.spec = "l";
    config.stripes = 8;
    net::ShardedBankMap map(config);
    const auto events = sampleStream(200, 41);
    map.applyBatch(1, vm::TraceSpan(events.data(), events.size()));
    map.applyBatch(2, vm::TraceSpan(events.data(), events.size()));

    obs::Registry registry;
    map.collect(registry);
    const auto snapshot = registry.snapshot();
    ASSERT_TRUE(snapshot.gauges.count("shard.banks"));
    EXPECT_EQ(snapshot.gauges.at("shard.banks"), 2u);
    ASSERT_TRUE(snapshot.gauges.count("shard.stripes"));
    EXPECT_EQ(snapshot.gauges.at("shard.stripes"), 8u);
    EXPECT_TRUE(snapshot.counters.count("shard.contentions"));
}

} // namespace
