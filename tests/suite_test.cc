/**
 * @file
 * Tests for the experiment harness: predictor spec parsing, suite
 * running, and averaging.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <cstdio>
#include <filesystem>

#include <unistd.h>

#include "exp/suite.hh"

namespace {

using namespace vp;
using namespace vp::exp;

TEST(MakePredictor, ParsesEverySpec)
{
    for (const char *spec :
         {"l", "l-sat", "l-consec", "s", "s-sat", "s2", "fcm0", "fcm1",
          "fcm3", "fcm8", "fcm2-full", "fcm2-pure", "fcm2-sat",
          "hybrid"}) {
        const auto pred = makePredictor(spec);
        ASSERT_NE(pred, nullptr) << spec;
        // Round trip through name() for the canonical specs (the
        // hybrid names its components; counter width is not a model).
        const std::string s(spec);
        if (s.find("sat") == std::string::npos && s != "hybrid") {
            EXPECT_EQ(pred->name(), spec);
        }
    }
    EXPECT_EQ(makePredictor("hybrid")->name(), "hyb(s2+fcm3)");
    // fcmK-sat keeps the plain name (counter width is not a model).
    EXPECT_EQ(makePredictor("fcm2-sat")->name(), "fcm2");
}

TEST(MakePredictor, RejectsUnknownSpecs)
{
    EXPECT_THROW(makePredictor("bogus"), std::invalid_argument);
    EXPECT_THROW(makePredictor("fcmx"), std::invalid_argument);
    EXPECT_THROW(makePredictor("fcm2-weird"), std::invalid_argument);
    EXPECT_THROW(makePredictor(""), std::invalid_argument);
}

TEST(Suite, RunsASubsetWithTrackers)
{
    SuiteOptions options;
    options.predictors = {"l", "s2", "fcm2"};
    options.benchmarks = {"compress", "xlisp"};
    options.config.scale = 5;
    options.overlap = 3;
    options.improvementA = 2;       // fcm2 over s2
    options.improvementB = 1;
    options.values = true;

    const auto runs = runSuite(options);
    ASSERT_EQ(runs.size(), 2u);
    for (const auto &run : runs) {
        SCOPED_TRACE(run.name);
        ASSERT_EQ(run.predictors.size(), 3u);
        EXPECT_EQ(run.predictors[0].first, "l");
        EXPECT_GT(run.predictors[0].second.total(), 0u);
        ASSERT_TRUE(run.overlap.has_value());
        EXPECT_EQ(run.overlap->total(),
                  run.predictors[0].second.total());
        ASSERT_TRUE(run.improvement.has_value());
        ASSERT_TRUE(run.values.has_value());
        EXPECT_GT(run.staticPredicted, 0u);
    }
}

TEST(Suite, AccuracyPctAndMean)
{
    SuiteOptions options;
    options.predictors = {"l", "s2"};
    options.benchmarks = {"m88ksim", "go"};
    options.config.scale = 5;
    const auto runs = runSuite(options);
    ASSERT_EQ(runs.size(), 2u);

    const double mean_l = meanAccuracyPct(runs, 0);
    EXPECT_NEAR(mean_l,
                (runs[0].accuracyPct(0) + runs[1].accuracyPct(0)) / 2,
                1e-9);
    for (const auto &run : runs) {
        EXPECT_GE(run.accuracyPct(1), 0.0);
        EXPECT_LE(run.accuracyPct(1), 100.0);
    }
}

TEST(Suite, EmptyBenchmarksMeansAllSeven)
{
    SuiteOptions options;
    options.predictors = {"l"};
    options.config.scale = 3;
    const auto runs = runSuite(options);
    EXPECT_EQ(runs.size(), 7u);
}

/** Full integer-count equality; doubles derive from these counts. */
void
expectIdenticalRuns(const std::vector<BenchmarkRun> &a,
                    const std::vector<BenchmarkRun> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE(a[i].name);
        EXPECT_EQ(a[i].name, b[i].name);
        EXPECT_EQ(a[i].exec.retired, b[i].exec.retired);
        EXPECT_EQ(a[i].exec.predicted, b[i].exec.predicted);
        EXPECT_EQ(a[i].exec.byCategory, b[i].exec.byCategory);
        EXPECT_EQ(a[i].staticPredicted, b[i].staticPredicted);
        EXPECT_EQ(a[i].staticByCategory, b[i].staticByCategory);
        ASSERT_EQ(a[i].predictors.size(), b[i].predictors.size());
        for (size_t p = 0; p < a[i].predictors.size(); ++p) {
            SCOPED_TRACE(a[i].predictors[p].first);
            const auto &sa = a[i].predictors[p].second;
            const auto &sb = b[i].predictors[p].second;
            EXPECT_EQ(a[i].predictors[p].first, b[i].predictors[p].first);
            EXPECT_EQ(sa.total(), sb.total());
            EXPECT_EQ(sa.predicted(), sb.predicted());
            EXPECT_EQ(sa.correct(), sb.correct());
            for (int c = 0; c < isa::numCategories; ++c) {
                const auto cat = static_cast<isa::Category>(c);
                EXPECT_EQ(sa.total(cat), sb.total(cat));
                EXPECT_EQ(sa.predicted(cat), sb.predicted(cat));
                EXPECT_EQ(sa.correct(cat), sb.correct(cat));
            }
        }
    }
}

/**
 * The record-once/replay-many path: byte-identical stats to live VM
 * execution for all seven workloads, and the warm pass skips the VM
 * entirely (the wall-clock win is recorded in the timing log).
 */
TEST(Suite, TraceReplayMatchesLiveVmByteForByte)
{
    using Clock = std::chrono::steady_clock;
    namespace fs = std::filesystem;

    const fs::path cache =
            fs::temp_directory_path() /
            ("vp-suite-test-traces-" + std::to_string(::getpid()));
    fs::remove_all(cache);

    SuiteOptions options;
    options.predictors = {"l", "s2", "fcm2", "hybrid", "fcm2:c2t2"};
    options.config.scale = 5;

    const auto live_start = Clock::now();
    const auto live = runSuite(options);
    const auto live_ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      live_start)
                    .count();

    options.traceReplay = true;
    options.traceCacheDir = cache.string();
    const auto cold_start = Clock::now();
    const auto cold = runSuite(options);    // records, then replays
    const auto cold_ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      cold_start)
                    .count();
    const auto warm_start = Clock::now();
    const auto warm = runSuite(options);    // replays the cache only
    const auto warm_ms =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      warm_start)
                    .count();

    ASSERT_EQ(live.size(), 7u);
    expectIdenticalRuns(live, cold);
    expectIdenticalRuns(live, warm);

    // All seven traces (plus sidecars) landed in the cache dir.
    size_t files = 0;
    for (const auto &entry : fs::directory_iterator(cache))
        files += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, 14u);

    // Timing is recorded, not asserted (loaded CI hosts): on an idle
    // host the warm pass shows the VM-execution win.
    RecordProperty("live_ms", static_cast<int>(live_ms));
    RecordProperty("cold_replay_ms", static_cast<int>(cold_ms));
    RecordProperty("warm_replay_ms", static_cast<int>(warm_ms));
    std::printf("[ suite    ] live %.0f ms, cold replay %.0f ms, "
                "warm replay %.0f ms\n",
                live_ms, cold_ms, warm_ms);

    fs::remove_all(cache);
}

TEST(Suite, PropagatesWorkloadErrors)
{
    SuiteOptions options;
    options.predictors = {"l"};
    options.benchmarks = {"compress", "no-such-workload", "xlisp"};
    options.config.scale = 5;
    EXPECT_THROW(runSuite(options), std::out_of_range);
}

TEST(Suite, ReportedCategoriesMatchTheFigures)
{
    const auto &cats = reportedCategories();
    ASSERT_EQ(cats.size(), 5u);
    EXPECT_EQ(cats[0], isa::Category::AddSub);
    EXPECT_EQ(cats[1], isa::Category::Loads);
    EXPECT_EQ(cats[4], isa::Category::Set);
}

} // anonymous namespace
