/**
 * @file
 * The experiment framework: a declarative registry of every
 * table/figure/study reproduced from the paper, and the cell-level
 * scheduler that runs them.
 *
 * An Experiment is a registration, not a binary: a name, a
 * declarative grid of (predictor-spec x workload x config) cells, and
 * a reduce/report hook that turns resolved cells into a Report
 * (exp/report.hh). The single `vpexp` driver (bench/vpexp.cc) replaces
 * the 22 per-figure bench binaries; adding a new study is ~20 lines
 * in src/exp/experiments/.
 *
 * Scheduling is per *cell* — one (workload, predictor-bank) run:
 *
 *  - identical cells requested by different experiments are
 *    deduplicated (figures 3-7 all bank {l, s2, fcm1-3}; tables 2/4/5
 *    all bank {l}) and their BenchmarkRun shared;
 *  - every cell replays the workload's recorded value trace
 *    (SuiteOptions::traceReplay), so distinct banks over the same
 *    workload pay for VM execution once per process;
 *  - a fixed worker pool (--jobs) crunches the prefetched grid of
 *    every selected experiment at once, so a multi-experiment run is
 *    never slower than running the legacy binaries serially.
 *
 * Results are byte-identical to a serial runSuite regardless of the
 * worker count: cells are independent (fresh predictor bank per cell)
 * and collected in request order.
 */

#ifndef VP_EXP_EXPERIMENT_HH
#define VP_EXP_EXPERIMENT_HH

#include <deque>
#include <functional>
#include <future>
#include <map>
#include <string>
#include <thread>
#include <vector>

#include "exp/report.hh"
#include "exp/suite.hh"
#include "obs/registry.hh"
#include "util/mutex.hh"

namespace vp::obs {
class TraceLog;
} // namespace vp::obs

namespace vp::exp {

/** Run-wide settings every cell and hook sees. */
struct ExperimentConfig
{
    /** Shrink every workload to smoke scale (the legacy --dry-run). */
    bool dryRun = false;

    /**
     * Trace-replay cache directory for all cells; empty = the
     * per-process temp cache (see SuiteOptions::traceCacheDir).
     */
    std::string traceCacheDir;

    /**
     * Windowed replay telemetry for every cell (`vpexp --window`):
     * close a statistics window every this many events (0 = off).
     * Part of a cell's identity — the series changes what a cell
     * computes (see SuiteOptions::windowEvents).
     */
    uint64_t windowEvents = 0;

    /**
     * Run-wide timeline log (`vpexp --trace-json`); the scheduler
     * hands it to every cell's instrumentation so cell, replay,
     * trace-cache and report spans land on one timeline.
     * Owned by the driver, null = off. Not part of any cell's
     * identity.
     */
    obs::TraceLog *traceLog = nullptr;
};

/** The workload scale --dry-run shrinks to (same as smoke_test). */
constexpr int dryRunScale = 5;

/**
 * Canonicalise @p options for use as a cell: apply the dry-run scale,
 * force trace replay through @p config's cache, neutralise the fields
 * a cell run ignores (disabled improvement pairs, the caller's
 * instrumentation) so equal work always yields equal dedup keys.
 */
SuiteOptions normalizeCellOptions(SuiteOptions options,
                                  const ExperimentConfig &config);

/**
 * The cell-level worker pool shared by every experiment in a run.
 *
 * Thread-safe: hooks may request suites from any thread; each unique
 * cell runs exactly once and its result is shared. Exceptions from a
 * cell (unknown workload, unbuildable predictor spec) rethrow from
 * every suite() that requested it, first failing workload in request
 * order.
 */
class CellScheduler
{
  public:
    /** Aggregate result of one unique cell, for machine output. */
    struct CellRecord
    {
        std::string workload;
        workloads::WorkloadConfig config;
        double wallMs = 0.0;

        /**
         * Queue wait: time between submit() and a worker picking up
         * the cell. wallMs starts at that pickup, so wallMs + queuedMs
         * is the submit-to-done latency.
         */
        double queuedMs = 0.0;
        bool done = false;

        /** Dynamic eligible (predicted) events the cell replayed;
         *  wallMs * 1e6 / events is the cell's ns-per-event. */
        uint64_t events = 0;

        /** (spec, stats) per predictor, bank order. */
        std::vector<std::pair<std::string, core::PredictionStats>>
                predictors;

        /**
         * The cell's merged counters/gauges/histograms, snapshot
         * from its private registry after the cell finished (see
         * obs/registry.hh for the merge rules).
         */
        obs::Snapshot counters;

        /** Windowed telemetry (ExperimentConfig::windowEvents > 0). */
        sim::WindowSeries windows;
    };

    /** Scheduler-level completion counts, for live progress lines. */
    struct Progress
    {
        size_t cellsDone = 0;       ///< finished, failed ones included
        size_t cellsTotal = 0;      ///< unique cells submitted so far
    };

    /** @p jobs worker threads; 0 = the hardware concurrency. */
    explicit CellScheduler(const ExperimentConfig &config,
                           unsigned jobs = 0);
    ~CellScheduler();

    CellScheduler(const CellScheduler &) = delete;
    CellScheduler &operator=(const CellScheduler &) = delete;

    /** Queue every cell of @p options without waiting for results. */
    void prefetch(const SuiteOptions &options);

    /**
     * Resolve every cell of @p options (benchmarks empty = all seven,
     * paper order) and return the runs in request order — the
     * cell-scheduled equivalent of runSuite. Appends the unique-cell
     * ids backing the result to @p cell_ids when given.
     */
    std::vector<BenchmarkRun> suite(const SuiteOptions &options,
                                    std::vector<size_t> *cell_ids =
                                            nullptr);

    unsigned workers() const { return workers_; }

    /** Cells requested via prefetch/suite, dedup hits included. */
    size_t requestedCells() const;

    /** Unique cells actually scheduled. */
    size_t uniqueCells() const;

    /** Snapshot of the per-cell records, id order. Records of cells
     *  still in flight have done == false. */
    std::vector<CellRecord> records() const;

    /** Completion counts at this instant (thread-safe). */
    Progress progress() const;

  private:
    struct CellObs;

    std::shared_future<BenchmarkRun> submit(const std::string &workload,
                                            const SuiteOptions &options,
                                            size_t *id);
    void workerLoop();

    ExperimentConfig config_;
    unsigned workers_ = 1;      ///< set once in the ctor, then read-only

    mutable util::Mutex mutex_;
    util::CondVar available_;
    bool stop_ VP_GUARDED_BY(mutex_) = false;
    /** One task per cell; it fulfills the cell's promise itself, so
     *  no task ever blocks on another and any worker count drains the
     *  queue. */
    std::deque<std::packaged_task<void()>> queue_ VP_GUARDED_BY(mutex_);
    std::map<std::string,
             std::pair<size_t, std::shared_future<BenchmarkRun>>>
            cells_ VP_GUARDED_BY(mutex_);
    std::vector<CellRecord> records_ VP_GUARDED_BY(mutex_);
    size_t requested_ VP_GUARDED_BY(mutex_) = 0;
    size_t cellsDone_ VP_GUARDED_BY(mutex_) = 0;
    std::vector<std::thread> threads_;      ///< ctor/dtor only
};

/**
 * What an experiment's run hook sees: the shared scheduler, the run
 * configuration, and the Report it fills in.
 */
class ExperimentContext
{
  public:
    ExperimentContext(const ExperimentConfig &config,
                      CellScheduler &scheduler)
        : config_(config), scheduler_(scheduler)
    {
    }

    const ExperimentConfig &config() const { return config_; }
    bool dryRun() const { return config_.dryRun; }

    /** Cell-scheduled suite run (see CellScheduler::suite). */
    std::vector<BenchmarkRun> suite(const SuiteOptions &options);

    Report &report() { return report_; }

    /** Unique-cell ids this context consumed, first-use order. */
    const std::vector<size_t> &cellsUsed() const { return cellsUsed_; }

  private:
    const ExperimentConfig &config_;
    CellScheduler &scheduler_;
    Report report_;
    std::vector<size_t> cellsUsed_;
};

/** One registered experiment. */
struct Experiment
{
    /** Registry key and CLI name: "figure3", "table1", "capacity". */
    std::string name;

    /** Heading printed above the report. */
    std::string title;

    /** One-liner for `vpexp --list`. */
    std::string description;

    /**
     * The declarative cell grid: every suite the run hook will
     * request, so the driver can prefetch all cells of all selected
     * experiments before any hook blocks on a result. Experiments
     * with no workload cells (synthetic-sequence studies) leave it
     * null or return {}.
     */
    std::function<std::vector<SuiteOptions>(const ExperimentConfig &)>
            grid;

    /** Reduce/report hook: consume resolved cells, fill the report. */
    std::function<void(ExperimentContext &)> run;
};

/** Name-keyed experiment collection, registration order preserved. */
class ExperimentRegistry
{
  public:
    /**
     * Register @p experiment.
     * @throws std::invalid_argument on an empty/duplicate name or a
     * missing run hook — the unique-name invariant the tests pin.
     */
    void add(Experiment experiment);

    /** Look up by name; nullptr when absent. */
    const Experiment *find(const std::string &name) const;

    const std::vector<Experiment> &all() const { return experiments_; }
    size_t size() const { return experiments_.size(); }

  private:
    std::vector<Experiment> experiments_;
};

/**
 * The process-wide registry holding every experiment of the paper
 * reproduction plus the extension studies (defined in
 * src/exp/experiments/, assembled in experiments/all.cc).
 */
ExperimentRegistry &registry();

} // namespace vp::exp

#endif // VP_EXP_EXPERIMENT_HH
