/**
 * @file
 * Tests for the experiment registry (exp/experiment.hh): the
 * unique-name invariant, the presence of every legacy experiment, and
 * the guarantee that every registered experiment completes under
 * --dry-run with an honest grid declaration and a non-empty report.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "exp/experiment.hh"
#include "exp/report.hh"

namespace {

using namespace vp;
using namespace vp::exp;

/** The 21 converted legacy binaries plus the registry-born studies
 *  (replacement, and the spec-grammar pair hybrid_split/aliasing). */
const std::vector<std::string> &
expectedNames()
{
    static const std::vector<std::string> names = {
        "table1",   "figure2",  "figure3",  "figure4",
        "figure5",  "figure6",  "figure7",  "figure8",
        "figure9",  "figure10", "figure11", "table2",
        "table4",   "table5",   "table6",   "table7",
        "hybrid",   "ablation_blending",    "ablation_hysteresis",
        "capacity", "confidence",           "replacement",
        "hybrid_split",         "aliasing",
    };
    return names;
}

TEST(Registry, EveryLegacyExperimentIsRegistered)
{
    const auto &reg = registry();
    EXPECT_EQ(reg.size(), expectedNames().size());
    for (const auto &name : expectedNames()) {
        EXPECT_NE(reg.find(name), nullptr)
                << "missing experiment: " << name;
    }
}

TEST(Registry, FindUnknownReturnsNull)
{
    EXPECT_EQ(registry().find("nope"), nullptr);
    EXPECT_EQ(registry().find(""), nullptr);
}

TEST(Registry, TitlesAndDescriptionsAreNonEmpty)
{
    for (const auto &experiment : registry().all()) {
        EXPECT_FALSE(experiment.title.empty()) << experiment.name;
        EXPECT_FALSE(experiment.description.empty())
                << experiment.name;
    }
}

TEST(Registry, RejectsDuplicateNames)
{
    ExperimentRegistry local;
    local.add(Experiment{"one", "t", "d", nullptr,
                         [](ExperimentContext &) {}});
    EXPECT_THROW(local.add(Experiment{"one", "t2", "d2", nullptr,
                                      [](ExperimentContext &) {}}),
                 std::invalid_argument);
}

TEST(Registry, RejectsEmptyNameAndMissingHook)
{
    ExperimentRegistry local;
    EXPECT_THROW(local.add(Experiment{"", "t", "d", nullptr,
                                      [](ExperimentContext &) {}}),
                 std::invalid_argument);
    EXPECT_THROW(local.add(Experiment{"named", "t", "d", nullptr,
                                      nullptr}),
                 std::invalid_argument);
}

/**
 * The registry-wide smoke pin: every experiment dry-runs to a
 * non-empty report, and its declarative grid is honest — after
 * prefetching the grid, running the hook must not create any unique
 * cell the grid did not declare (the property the driver's
 * prefetch-then-run scheduling relies on for full cell parallelism).
 *
 * One scheduler is shared across all experiments, exactly like a
 * `vpexp --all --dry-run` invocation, so the test also exercises
 * cross-experiment cell dedup at full registry scale.
 */
TEST(Registry, EveryExperimentDryRunsWithAnHonestGrid)
{
    ExperimentConfig config;
    config.dryRun = true;
    CellScheduler scheduler(config, 0);

    for (const auto &experiment : registry().all()) {
        if (experiment.grid) {
            for (const auto &suite : experiment.grid(config))
                scheduler.prefetch(suite);
        }
        const size_t declared = scheduler.uniqueCells();

        ExperimentContext ctx(config, scheduler);
        ASSERT_NO_THROW(experiment.run(ctx)) << experiment.name;
        EXPECT_FALSE(ctx.report().empty()) << experiment.name;

        EXPECT_EQ(scheduler.uniqueCells(), declared)
                << experiment.name
                << " ran cells its grid did not declare";
    }

    // The registry-wide run must actually share work: far fewer
    // unique cells than requests (figures 3-7 share one bank, tables
    // 2/4/5 another, replacement and aliasing reuse capacity's).
    EXPECT_LT(scheduler.uniqueCells(), scheduler.requestedCells() / 2);
}

/** Prefetch @p names' grids, then run their hooks in order on
 *  @p scheduler; returns each rendered report. */
std::vector<std::string>
runOn(CellScheduler &scheduler, const ExperimentConfig &config,
      const std::vector<std::string> &names)
{
    for (const auto &name : names) {
        for (const auto &suite : registry().find(name)->grid(config))
            scheduler.prefetch(suite);
    }
    std::vector<std::string> reports;
    for (const auto &name : names) {
        ExperimentContext ctx(config, scheduler);
        registry().find(name)->run(ctx);
        reports.push_back(report_writer::renderText(ctx.report()));
    }
    return reports;
}

/**
 * The capacity-grid sweeps share capacity's cells: replacement and
 * aliasing read their unbounded and LRU / full-key columns from
 * capacity's runs, so one run of all three replays each predictor
 * once per workload, and each report is what a standalone run of
 * that experiment prints.
 */
TEST(Registry, CapacityGridSweepsReplayEachPredictorOnce)
{
    ExperimentConfig config;
    config.dryRun = true;
    const std::vector<std::string> names = {"capacity", "replacement",
                                            "aliasing"};
    CellScheduler shared(config, 0);
    const auto reports = runOn(shared, config, names);

    std::set<std::tuple<std::string, int, std::string>> replayed;
    for (const auto &record : shared.records()) {
        for (const auto &member : record.predictors) {
            EXPECT_TRUE(replayed
                                .emplace(record.workload,
                                         record.config.scale,
                                         member.first)
                                .second)
                    << member.first << " on " << record.workload
                    << " replayed by two cells";
        }
    }
    EXPECT_FALSE(replayed.empty());

    for (size_t i = 0; i < names.size(); ++i) {
        CellScheduler alone(config, 0);
        EXPECT_EQ(runOn(alone, config, {names[i]}).front(), reports[i])
                << names[i];
    }
}

} // anonymous namespace
