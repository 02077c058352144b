/**
 * @file
 * Tests for the experiment registry (exp/experiment.hh): the
 * unique-name invariant, the presence of every legacy experiment, the
 * guarantee that every registered experiment completes under
 * --dry-run with a non-empty report, and runExperiment's failure
 * isolation.
 */

#include <gtest/gtest.h>

#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "exp/experiment.hh"
#include "exp/report.hh"
#include "workloads/workload.hh"

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
                         [](const GridRuns &, Report &) {}});
    EXPECT_THROW(local.add(Experiment{"one", "t2", "d2", nullptr,
                                      [](const GridRuns &, Report &) {}}),
                 std::invalid_argument);
}

TEST(Registry, RejectsEmptyNameAndMissingHook)
{
    ExperimentRegistry local;
    EXPECT_THROW(local.add(Experiment{"", "t", "d", nullptr,
                                      [](const GridRuns &, Report &) {}}),
                 std::invalid_argument);
    EXPECT_THROW(local.add(Experiment{"named", "t", "d", nullptr,
                                      nullptr}),
                 std::invalid_argument);
}

/**
 * The registry-wide smoke pin: every experiment dry-runs to a
 * non-empty report. Its grid is honest by construction — the hook
 * reads only the runs of its grid, and vplint's experiment-cells rule
 * keeps the experiment files away from the scheduler and the suite
 * runners.
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
        prefetchGrid(experiment, scheduler);
        const ExperimentOutcome outcome =
                runExperiment(experiment, scheduler);
        ASSERT_TRUE(outcome.ok) << experiment.name << ": " << outcome.error;
        EXPECT_FALSE(outcome.report.empty()) << experiment.name;
    }

    // The registry-wide run must actually share work: far fewer
    // unique cells than requests (figures 3-7 share one bank, tables
    // 2/4/5 another, replacement and aliasing reuse capacity's).
    EXPECT_LT(scheduler.uniqueCells(), scheduler.requestedCells() / 2);
}

/**
 * One failing experiment does not stop the others: a grid naming an
 * unknown workload fails its own outcome with the lookup's error, and
 * a good experiment run next on the same scheduler still reports.
 */
TEST(Registry, AFailingExperimentDoesNotStopTheNext)
{
    ExperimentConfig config;
    config.dryRun = true;
    CellScheduler scheduler(config, 0);

    bool hook_ran = false;
    const Experiment broken{
        "broken", "t", "d",
        [](const ExperimentConfig &) {
            SuiteOptions options;
            options.predictors = {"l"};
            options.benchmarks = {"no-such-workload"};
            return std::vector<SuiteOptions>{options};
        },
        [&hook_ran](const GridRuns &, Report &) { hook_ran = true; },
    };
    const ExperimentOutcome failed = runExperiment(broken, scheduler);
    EXPECT_FALSE(failed.ok);
    EXPECT_NE(failed.error.find("unknown workload: no-such-workload"),
              std::string::npos)
            << failed.error;
    EXPECT_FALSE(hook_ran);
    EXPECT_TRUE(failed.cells.empty());

    const ExperimentOutcome good =
            runExperiment(*registry().find("table2"), scheduler);
    ASSERT_TRUE(good.ok) << good.error;
    EXPECT_FALSE(good.report.empty());
    EXPECT_EQ(good.cells.size(), workloads::allWorkloads().size());
}

/** Prefetch @p names' grids, then run them in order on @p scheduler;
 *  returns each rendered report. */
std::vector<std::string>
runOn(CellScheduler &scheduler, const std::vector<std::string> &names)
{
    for (const auto &name : names)
        prefetchGrid(*registry().find(name), scheduler);
    std::vector<std::string> reports;
    for (const auto &name : names) {
        const ExperimentOutcome outcome =
                runExperiment(*registry().find(name), scheduler);
        EXPECT_TRUE(outcome.ok) << name << ": " << outcome.error;
        reports.push_back(report_writer::renderText(outcome.report));
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
    const auto reports = runOn(shared, names);

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
        EXPECT_EQ(runOn(alone, {names[i]}).front(), reports[i])
                << names[i];
    }
}

} // anonymous namespace
