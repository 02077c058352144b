/**
 * @file
 * Tests for the observability subsystem (src/obs/): the registry's
 * sum / high-water rules and independence, the log2 histogram's
 * boundary buckets, gauge high-water semantics, snapshot merging, and
 * the Chrome trace-event log's JSON shape and RAII span behavior.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>

#include "obs/instrumentation.hh"
#include "obs/registry.hh"
#include "obs/trace_log.hh"

namespace {

using namespace vp;

/** Balanced-brace / balanced-bracket check outside JSON strings. */
void
expectStructurallyValidJson(const std::string &text)
{
    int braces = 0, brackets = 0;
    bool in_string = false, escaped = false;
    for (const char c : text) {
        if (escaped) {
            escaped = false;
            continue;
        }
        if (c == '\\') {
            escaped = true;
        } else if (c == '"') {
            in_string = !in_string;
        } else if (!in_string) {
            braces += c == '{' ? 1 : c == '}' ? -1 : 0;
            brackets += c == '[' ? 1 : c == ']' ? -1 : 0;
            EXPECT_GE(braces, 0);
            EXPECT_GE(brackets, 0);
        }
    }
    EXPECT_FALSE(in_string);
    EXPECT_EQ(braces, 0);
    EXPECT_EQ(brackets, 0);
}

TEST(Registry, CountersSumHistogramsCountAndGaugesKeepTheMaximum)
{
    // The cell contract: one producer emitting the same names over and
    // over accumulates them exactly into one logical metric each.
    obs::Registry registry;
    constexpr uint64_t kEmits = 10000;
    for (uint64_t i = 0; i < kEmits; ++i) {
        registry.add("shared.counter", 1);
        registry.add("shared.bytes", 3);
        registry.record("shared.hist", i % 17);
    }
    for (const uint64_t peak : {103u, 100u, 107u, 101u})
        registry.gauge("shared.peak", peak);

    const obs::Snapshot snap = registry.snapshot();
    EXPECT_EQ(snap.counter("shared.counter"), kEmits);
    EXPECT_EQ(snap.counter("shared.bytes"), 3 * kEmits);
    ASSERT_EQ(snap.histograms.count("shared.hist"), 1u);
    EXPECT_EQ(snap.histograms.at("shared.hist").count, kEmits);
    ASSERT_EQ(snap.gauges.count("shared.peak"), 1u);
    EXPECT_EQ(snap.gauges.at("shared.peak"), 107u)
            << "gauges keep the maximum ever set";
}

TEST(Registry, AbsentCounterReadsAsZero)
{
    obs::Registry registry;
    EXPECT_EQ(registry.snapshot().counter("never.emitted"), 0u);
}

TEST(Registry, TwoRegistriesOnOneThreadStayIndependent)
{
    // Two registries fed from the same thread must not cross-talk.
    obs::Registry a, b;
    a.add("x", 1);
    b.add("x", 2);
    a.add("x", 4);
    EXPECT_EQ(a.snapshot().counter("x"), 5u);
    EXPECT_EQ(b.snapshot().counter("x"), 2u);
}

TEST(Histogram, BoundaryValuesLandInDistinctBuckets)
{
    // Bucket = bit width: 0 -> bucket 0, 1 -> bucket 1, UINT64_MAX ->
    // bucket 64. All three must be representable and distinct.
    EXPECT_EQ(obs::Histogram::bucketOf(0), 0);
    EXPECT_EQ(obs::Histogram::bucketOf(1), 1);
    EXPECT_EQ(obs::Histogram::bucketOf(2), 2);
    EXPECT_EQ(obs::Histogram::bucketOf(3), 2);
    EXPECT_EQ(obs::Histogram::bucketOf(4), 3);
    EXPECT_EQ(obs::Histogram::bucketOf(UINT64_MAX), 64);
    EXPECT_EQ(obs::Histogram::bucketLow(0), 0u);
    EXPECT_EQ(obs::Histogram::bucketLow(1), 1u);
    EXPECT_EQ(obs::Histogram::bucketLow(64), uint64_t{1} << 63);

    obs::Histogram hist;
    hist.record(0);
    hist.record(1);
    hist.record(UINT64_MAX);
    EXPECT_EQ(hist.count, 3u);
    EXPECT_EQ(hist.min, 0u);
    EXPECT_EQ(hist.max, UINT64_MAX);
    EXPECT_EQ(hist.buckets[0], 1u);
    EXPECT_EQ(hist.buckets[1], 1u);
    EXPECT_EQ(hist.buckets[64], 1u);
}

TEST(Histogram, WeightedRecordMatchesRepeatedRecord)
{
    obs::Histogram repeated, weighted;
    for (int i = 0; i < 37; ++i)
        repeated.record(5);
    repeated.record(900);
    weighted.record(5, 37);
    weighted.record(900, 1);
    weighted.record(123, 0);        // weight 0: a no-op, not a sample
    EXPECT_EQ(weighted.count, repeated.count);
    EXPECT_EQ(weighted.sum, repeated.sum);
    EXPECT_EQ(weighted.min, repeated.min);
    EXPECT_EQ(weighted.max, repeated.max);
    EXPECT_EQ(weighted.buckets, repeated.buckets);
    EXPECT_DOUBLE_EQ(weighted.mean(), repeated.mean());
}

TEST(Snapshot, MergeSumsCountersAndKeepsGaugeMaxima)
{
    obs::Snapshot a, b;
    a.counters["n"] = 3;
    b.counters["n"] = 4;
    a.gauges["peak"] = 10;
    b.gauges["peak"] = 7;
    b.gauges["only_b"] = 2;
    a.histograms["h"].record(1);
    b.histograms["h"].record(16);
    a.merge(b);
    EXPECT_EQ(a.counters["n"], 7u);
    EXPECT_EQ(a.gauges["peak"], 10u);
    EXPECT_EQ(a.gauges["only_b"], 2u);
    EXPECT_EQ(a.histograms["h"].count, 2u);
    EXPECT_EQ(a.histograms["h"].max, 16u);
    EXPECT_FALSE(a.empty());
    EXPECT_TRUE(obs::Snapshot{}.empty());
}

TEST(TraceLog, RendersLoadableTraceEventJson)
{
    obs::TraceLog log;
    {
        auto span = obs::TraceLog::span(&log, "cell gcc", "cell");
        span.arg("events", "4096");
    }
    log.complete("record xlisp", "trace-cache",
                 obs::TraceLog::Clock::now(),
                 obs::TraceLog::Clock::now());
    EXPECT_EQ(log.eventCount(), 2u);

    const std::string json = log.render();
    expectStructurallyValidJson(json);
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"ph\": \"X\""), std::string::npos);
    EXPECT_NE(json.find("\"cell gcc\""), std::string::npos);
    EXPECT_NE(json.find("\"events\": \"4096\""), std::string::npos);
    // Lane metadata so the viewer names worker threads.
    EXPECT_NE(json.find("\"thread_name\""), std::string::npos);

    std::ostringstream out;
    log.write(out);
    EXPECT_EQ(out.str(), json);
}

TEST(TraceLog, NullLogYieldsInertSpans)
{
    auto span = obs::TraceLog::span(nullptr, "ignored", "ignored");
    span.arg("k", "v");
    span.close();       // must be safe repeatedly on an inert span
    span.close();
}

TEST(TraceLog, MoveAssignClosesTheCurrentSpanFirst)
{
    // Reassigning a live span must record the old one first.
    obs::TraceLog log;
    {
        auto span = obs::TraceLog::span(&log, "first", "replay");
        span = obs::TraceLog::span(&log, "second", "replay");
        EXPECT_EQ(log.eventCount(), 1u) << "first closed by assignment";
    }
    EXPECT_EQ(log.eventCount(), 2u);
    const std::string json = log.render();
    EXPECT_NE(json.find("\"first\""), std::string::npos);
    EXPECT_NE(json.find("\"second\""), std::string::npos);
}

TEST(Instrumentation, NullHandleHelpersAreNoOps)
{
    obs::add(nullptr, "x");
    obs::gauge(nullptr, "x", 1);
    obs::record(nullptr, "x", 1);
    auto span = obs::span(nullptr, "x", "y");

    // A handle with a registry but no trace log still counts.
    obs::Registry registry;
    obs::Instrumentation instr(&registry);
    obs::add(&instr, "counted", 2);
    auto inert = obs::span(&instr, "x", "y");
    EXPECT_EQ(registry.snapshot().counter("counted"), 2u);
}

} // namespace
