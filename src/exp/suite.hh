/**
 * @file
 * Suite harness shared by every experiment.
 *
 * Runs the canonical benchmark suite (the seven SPEC95int proxies)
 * against a configurable set of predictors in one trace pass per
 * benchmark, and returns plain-value results that the registered
 * experiments (src/exp/experiments/, via exp/experiment.hh) reduce
 * into reports.
 */

#ifndef VP_EXP_SUITE_HH
#define VP_EXP_SUITE_HH

#include <optional>
#include <string>
#include <vector>

#include "core/improvement.hh"
#include "core/overlap.hh"
#include "core/predictor.hh"
#include "core/stats.hh"
#include "core/value_profile.hh"
#include "sim/driver.hh"
#include "vm/exec_stats.hh"
#include "workloads/workload.hh"

namespace vp::obs {
class Instrumentation;
} // namespace vp::obs

namespace vp::exp {

/**
 * Create a predictor from a spec string — a thin shim over the typed
 * PredictorSpec model: parseSpec(spec).build().
 *
 * The grammar (families, "@" capacity budgets with optional "%" tag
 * widths, "hybrid(a,b;ch@...)" compositions, ":cWtT" confidence
 * gates) is documented once in exp::specGrammarHelp() — see
 * exp/spec.hh, or run `vpexp --spec-help`.
 *
 * @throws std::invalid_argument for malformed specs, naming the
 * offending position and token.
 */
core::PredictorPtr makePredictor(const std::string &spec);

/**
 * Add one member per spec to @p bank, in order, all built by one
 * SpecInterner (exp/spec.hh): a sub-predictor several specs share —
 * the base under a confidence sweep's gates, a hybrid's components
 * that are also members — is built once and becomes one bank node,
 * evaluated once per batch. Member statistics are byte-identical to
 * adding makePredictor(spec) for each spec. Every multi-spec bank in
 * the repo is filled this way.
 *
 * @throws std::invalid_argument for malformed specs.
 */
void addSpecs(sim::PredictorBank &bank,
              const std::vector<std::string> &specs);

/** What to run and what to observe. */
struct SuiteOptions
{
    /** Predictor specs evaluated side by side on the same trace. */
    std::vector<std::string> predictors = {"l", "s2", "fcm1", "fcm2",
                                           "fcm3"};

    /** Benchmarks to run; empty = all seven, paper order. */
    std::vector<std::string> benchmarks;

    /** Workload input/flags/scale. */
    workloads::WorkloadConfig config;

    /** Track correct-set overlap over the first N predictors (0 off). */
    int overlap = 0;

    /**
     * Track per-static improvement of predictors[improvementA] over
     * predictors[improvementB] (Figure 9). Off when A == B.
     */
    size_t improvementA = 0;
    size_t improvementB = 0;

    /** Track unique values per static instruction (Figure 10). */
    bool values = false;

    /**
     * Record-once / replay-many: on the first run of a workload
     * configuration, execute the VM once and record its value trace
     * (vm::Vpt2Writer) plus an exec-stats sidecar to the cache
     * directory; every run — including that first one — then feeds
     * the predictor bank by replaying the file (vm::Vpt2Reader), so
     * results are byte-identical to live execution (pinned by
     * suite_test) while repeated sweeps over the same workloads pay
     * for VM execution only once per process.
     */
    bool traceReplay = false;

    /**
     * Cache directory for traceReplay. Empty = a unique per-process
     * directory under the system temp dir, removed at process exit,
     * so a stale trace from an older binary is never replayed; set
     * it explicitly to share recordings across processes (then *you*
     * own invalidating it when workloads change).
     */
    std::string traceCacheDir;

    /**
     * Windowed replay telemetry: close a statistics window every this
     * many events and record per-predictor coverage/accuracy deltas
     * into BenchmarkRun::windows (0 = off). Requires traceReplay.
     * Never changes the per-event protocol — stats with windowing on
     * are byte-identical to windowing off.
     */
    uint64_t windowEvents = 0;

    /**
     * Optional per-cell instrumentation handle (obs/instrumentation.hh):
     * the harness pulls predictor-table counters, trace I/O and cache
     * hit/miss/record counts into its registry and records timeline
     * spans on its trace log. Null = off (the default): no counter is
     * read, no name is formatted, replay is byte- and time-identical.
     * Not part of a cell's identity — two runs differing only here are
     * the same experiment (see exp/experiment.hh cell keys).
     */
    obs::Instrumentation *instrumentation = nullptr;
};

/** Results for one benchmark. */
struct BenchmarkRun
{
    std::string name;
    vm::ExecStats exec;
    size_t staticPredicted = 0;
    std::array<size_t, isa::numCategories> staticByCategory{};

    /** (spec, stats) per predictor, in SuiteOptions order. */
    std::vector<std::pair<std::string, core::PredictionStats>> predictors;

    std::optional<core::OverlapTracker> overlap;
    std::optional<core::ImprovementTracker> improvement;
    std::optional<core::ValueProfiler> values;

    /** Windowed telemetry (SuiteOptions::windowEvents > 0 only). */
    sim::WindowSeries windows;

    /** Accuracy (in percent) of the predictor at @p index. */
    double accuracyPct(size_t index) const;
    double accuracyPct(size_t index, isa::Category cat) const;
};

/** Run one benchmark under the given options. */
BenchmarkRun runBenchmark(const std::string &name,
                          const SuiteOptions &options);

/**
 * Run all requested benchmarks, serially and in request order — the
 * live-VM reference the cell-scheduled experiments (exp/experiment.hh)
 * are tested against.
 */
std::vector<BenchmarkRun> runSuite(const SuiteOptions &options);

/**
 * Arithmetic mean of per-benchmark accuracies (percent) for predictor
 * @p index, the paper's averaging rule ("each benchmark effectively
 * contributes the same number of total predictions").
 */
double meanAccuracyPct(const std::vector<BenchmarkRun> &runs,
                       size_t index);

double meanAccuracyPct(const std::vector<BenchmarkRun> &runs,
                       size_t index, isa::Category cat);

/** The per-category codes the paper reports figures for. */
const std::vector<isa::Category> &reportedCategories();

} // namespace vp::exp

#endif // VP_EXP_SUITE_HH
