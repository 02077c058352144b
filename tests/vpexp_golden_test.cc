/**
 * @file
 * Golden pins for the experiment registry: every paper experiment
 * must produce numerically identical results through the vpexp
 * path, and one small experiment's CSV is pinned byte-for-byte.
 *
 * Regenerating the CSV golden after an intentional change:
 *   build/bench/vpexp table1 --out /tmp/g --format csv
 *   cp /tmp/g/table1.learning.csv tests/golden/table1.learning.csv
 * (table1 runs on synthetic sequences, so the file is independent of
 * workload scale and host.)
 *
 * The spec-name golden (spec_names.txt) pins the canonical spelling
 * of every predictor spec any registered experiment banks, so
 * accidental grammar drift — a suffix rendered differently, a default
 * silently changed — fails here before it silently re-keys the cell
 * scheduler's dedup. Regenerate after an intentional grammar change
 * (rewrites tests/golden/spec_names.txt in place, then re-run):
 *   VP_PRINT_GOLDEN=1 build/tests/vpexp_golden_test \
 *     --gtest_filter='*SpecNames*'
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <string>

#include "exp/experiment.hh"
#include "exp/report.hh"
#include "exp/spec.hh"
#include "exp/suite.hh"

namespace {

using namespace vp;
using namespace vp::exp;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

/** Run one registered experiment on a fresh scheduler. */
Report
reportOf(const std::string &name, const ExperimentConfig &config)
{
    const Experiment *experiment = registry().find(name);
    if (experiment == nullptr)
        throw std::runtime_error("no experiment " + name);
    CellScheduler scheduler(config);
    ExperimentOutcome outcome = runExperiment(*experiment, scheduler);
    if (!outcome.ok)
        throw std::runtime_error(name + ": " + outcome.error);
    return std::move(outcome.report);
}

TEST(VpexpGolden, Table1CsvMatchesGoldenFile)
{
    const Report report = reportOf("table1", {});
    ASSERT_EQ(report.tables().size(), 1u);
    const auto &table = report.tables().front();
    EXPECT_EQ(table.id(), "learning");

    const std::string golden =
            slurp(std::string(VP_GOLDEN_DIR) + "/table1.learning.csv");
    ASSERT_FALSE(golden.empty())
            << "missing golden file under " << VP_GOLDEN_DIR;
    EXPECT_EQ(report_writer::renderCsv(table), golden)
            << "table1 output drifted; see the regeneration recipe in "
               "this file's header";
}

/** Format a double exactly as ReportTable::cell(double, 1) renders. */
std::string
fmt1(double value)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.1f", value);
    return buf;
}

/**
 * The numbers-identical pin: figure3 through the registry equals a
 * direct serial exp::runSuite over the same predictors with live VM
 * execution (no trace replay, no cell scheduler). One representative
 * per shape; every other suite experiment shares runBenchmark with
 * this path by construction (and the registry smoke test runs them
 * all).
 */
TEST(VpexpGolden, Figure3MatchesLegacyRunSuitePath)
{
    ExperimentConfig config;
    config.dryRun = true;
    const Report report = reportOf("figure3", config);
    ASSERT_EQ(report.tables().size(), 1u);
    const auto &table = report.tables().front();

    // The legacy path: serial runSuite, live VM, no trace replay.
    SuiteOptions options;
    options.predictors = {"l", "s2", "fcm1", "fcm2", "fcm3"};
    options.config.scale = dryRunScale;
    const auto runs = runSuite(options);

    // Rows: header, then one per benchmark, then the mean row.
    const auto &rows = table.rows();
    ASSERT_EQ(rows.size(), runs.size() + 2);
    for (size_t i = 0; i < runs.size(); ++i) {
        const auto &row = rows[i + 1];
        ASSERT_EQ(row.size(), 7u);
        EXPECT_EQ(row[0].text, runs[i].name);
        for (size_t p = 0; p < options.predictors.size(); ++p) {
            EXPECT_EQ(row[p + 1].text, fmt1(runs[i].accuracyPct(p)))
                    << runs[i].name << " " << options.predictors[p];
        }
    }
    const auto &mean_row = rows.back();
    for (size_t p = 0; p < options.predictors.size(); ++p) {
        EXPECT_EQ(mean_row[p + 1].text,
                  fmt1(meanAccuracyPct(runs, p)));
    }
}

/**
 * Every spec the 24-experiment registry banks is already canonical
 * (its canonical name is byte-identical to the spelling the
 * experiment uses — the compatibility bar the PredictorSpec redesign
 * had to clear), and the full sorted set matches the golden file.
 */
TEST(VpexpGolden, RegistrySpecNamesAreCanonicalAndMatchGoldenFile)
{
    ExperimentConfig config;
    config.dryRun = true;
    std::set<std::string> specs;
    for (const auto &experiment : registry().all()) {
        if (!experiment.grid)
            continue;
        for (const auto &suite : experiment.grid(config)) {
            for (const auto &spec : suite.predictors)
                specs.insert(spec);
        }
    }
    ASSERT_GT(specs.size(), 100u);

    std::ostringstream rendered;
    for (const auto &spec : specs) {
        const std::string canonical = parseSpec(spec).canonicalName();
        EXPECT_EQ(canonical, spec)
                << "a registry spec stopped being canonical";
        rendered << canonical << '\n';
    }

    if (std::getenv("VP_PRINT_GOLDEN") != nullptr) {
        std::ofstream out(std::string(VP_GOLDEN_DIR) +
                          "/spec_names.txt");
        out << rendered.str();
        ASSERT_TRUE(out.good());
        GTEST_SKIP() << "rewrote spec_names.txt; re-run without "
                        "VP_PRINT_GOLDEN";
    }

    const std::string golden =
            slurp(std::string(VP_GOLDEN_DIR) + "/spec_names.txt");
    ASSERT_FALSE(golden.empty())
            << "missing golden file under " << VP_GOLDEN_DIR;
    EXPECT_EQ(rendered.str(), golden)
            << "registry spec set or grammar drifted; see the "
               "regeneration recipe in this file's header";
}

/**
 * Display names tell bank members apart (vpsim/asm_playground tables,
 * PredictorBank::indexOf), so no two registry specs may share one:
 * name() must be injective over the golden spec set.
 */
TEST(VpexpGolden, PredictorNamesAreInjectiveOverGoldenSpecs)
{
    std::istringstream golden(
            slurp(std::string(VP_GOLDEN_DIR) + "/spec_names.txt"));
    std::map<std::string, std::string> spec_of_name;
    size_t specs = 0;
    for (std::string spec; std::getline(golden, spec);) {
        ++specs;
        const std::string name = makePredictor(spec)->name();
        const auto [it, fresh] = spec_of_name.emplace(name, spec);
        EXPECT_TRUE(fresh) << "\"" << spec << "\" and \"" << it->second
                           << "\" are both named \"" << name << "\"";
    }
    EXPECT_GT(specs, 100u);
}

/** Same pin for the counting shape (tables 2/4/5): exact integers. */
TEST(VpexpGolden, Table2MatchesLegacyRunSuitePath)
{
    ExperimentConfig config;
    config.dryRun = true;
    const Report report = reportOf("table2", config);
    ASSERT_EQ(report.tables().size(), 2u);
    const auto &table = report.tables()[1];   // characteristics
    EXPECT_EQ(table.id(), "characteristics");

    SuiteOptions options;
    options.predictors = {"l"};
    options.config.scale = dryRunScale;
    const auto runs = runSuite(options);

    const auto &rows = table.rows();
    ASSERT_EQ(rows.size(), runs.size() + 1);
    for (size_t i = 0; i < runs.size(); ++i) {
        const auto &row = rows[i + 1];
        EXPECT_EQ(row[0].text, runs[i].name);
        EXPECT_EQ(row[1].text,
                  std::to_string(runs[i].exec.retired / 1000));
        EXPECT_EQ(row[2].text,
                  std::to_string(runs[i].exec.predicted / 1000));
        EXPECT_EQ(row[3].text,
                  fmt1(100.0 * runs[i].exec.predictedFraction()));
    }
}

} // anonymous namespace
