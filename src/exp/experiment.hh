/**
 * @file
 * The experiment framework: a declarative registry of every
 * table/figure/study reproduced from the paper, and the cell-level
 * scheduler that runs them.
 *
 * An Experiment is a registration: a name, a declarative grid of
 * (predictor-spec x workload x config) cells, and a reduce/report
 * hook that turns the grid's resolved runs into a Report
 * (exp/report.hh). The grid is the only place an experiment names its
 * cells; runExperiment() resolves it and hands the runs to the hook,
 * which never sees the scheduler. The `vpexp` driver
 * (bench/vpexp.cc) runs any selection of them; adding a new study is
 * ~20 lines in src/exp/experiments/.
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
 *    every selected experiment at once;
 *  - a free worker picks the queued cell expected to take longest,
 *    from costs the run itself measured, so the heavy cells do not
 *    queue up at the end and the workers finish together.
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
#include <optional>
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

/** Run-wide settings every cell and grid sees. */
struct ExperimentConfig
{
    /** Shrink every workload to smoke scale (`vpexp --dry-run`). */
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
 * Thread-safe: suites may be requested from any thread; each unique
 * cell runs exactly once and its result is shared. Exceptions from a
 * cell (unknown workload, unbuildable predictor spec) rethrow from
 * every suite() that requested it, first failing workload in request
 * order.
 *
 * A cell is a trace (workload, input, flags, scale) replayed into a
 * bank (the rest of its key: specs, trackers, window). A free worker
 * takes the first queued cell that matches, checking in order:
 *
 *  1. the oldest cell whose trace no cell has started: it records
 *     the trace;
 *  2. the oldest cell whose bank no cell has started: it measures the
 *     bank's cost;
 *  3. the cell with the largest estimate, the bank's ms per event
 *     (from its first finished cell) times the trace's events (from
 *     that trace's first finished cell); ties keep submission order;
 *  4. the oldest cell.
 *
 * This is longest-processing-time-first list scheduling with costs
 * the run itself observed, so the heavy cells start early rather than
 * forming the tail. A failed cell measures nothing, and its trace and
 * bank count as unstarted again until some cell measures them. Cell
 * ids stay in submission order, and no result depends on the order
 * cells run in.
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

        /** The scheduler's wall-time estimate when it picked the cell
         *  by estimate (rule 3 in the class comment); absent for
         *  cells picked to record a trace, to measure a bank, or in
         *  submission order. */
        std::optional<double> estimatedMs;

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

    /** The run-wide settings every cell of this scheduler sees. */
    const ExperimentConfig &config() const { return config_; }

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

    /** What the pick rules know of one trace or one bank. */
    struct Cost
    {
        bool started = false;   ///< a cell of it started and did not fail
        bool measured = false;  ///< a cell of it finished: value holds
        double value = 0.0;     ///< trace: events; bank: ms per event
    };

    /** A queued cell: its trace's and bank's costs (nodes of traces_
     *  and banks_, so the pointers stay valid) and the task that runs
     *  it and fulfills its promise. */
    struct QueuedCell
    {
        size_t id = 0;
        Cost *trace = nullptr;
        Cost *bank = nullptr;
        std::packaged_task<void()> task;
    };

    std::shared_future<BenchmarkRun> submit(const std::string &workload,
                                            const SuiteOptions &options,
                                            size_t *id);
    size_t pickNext(std::optional<double> &estimate_ms) const
            VP_REQUIRES(mutex_);
    void workerLoop();

    ExperimentConfig config_;
    unsigned workers_ = 1;      ///< set once in the ctor, then read-only

    mutable util::Mutex mutex_;
    util::CondVar available_;
    bool stop_ VP_GUARDED_BY(mutex_) = false;
    /** One task per cell; it fulfills the cell's promise itself, so
     *  no task ever blocks on another and any worker count drains the
     *  queue. */
    std::deque<QueuedCell> queue_ VP_GUARDED_BY(mutex_);
    std::map<std::string, Cost> traces_ VP_GUARDED_BY(mutex_);
    std::map<std::string, Cost> banks_ VP_GUARDED_BY(mutex_);
    std::map<std::string,
             std::pair<size_t, std::shared_future<BenchmarkRun>>>
            cells_ VP_GUARDED_BY(mutex_);
    std::vector<CellRecord> records_ VP_GUARDED_BY(mutex_);
    size_t requested_ VP_GUARDED_BY(mutex_) = 0;
    size_t cellsDone_ VP_GUARDED_BY(mutex_) = 0;
    std::vector<std::thread> threads_;      ///< ctor/dtor only
};

/**
 * The resolved runs of an experiment's grid: cells[i] holds the runs
 * of grid(config)[i], one per workload in that suite's order.
 */
using GridRuns = std::vector<std::vector<BenchmarkRun>>;

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
     * The declarative cell grid, the one place the experiment names
     * its cells: every suite its report reads, in the order the run
     * hook indexes them. `vpexp` prefetches the grids of all
     * selected experiments before it resolves any. Experiments with
     * no workload cells (synthetic-sequence studies) leave it null.
     */
    std::function<std::vector<SuiteOptions>(const ExperimentConfig &)>
            grid;

    /**
     * Reduce/report hook: a pure function of the resolved grid
     * (GridRuns; empty when grid is null) that fills the report.
     */
    std::function<void(const GridRuns &cells, Report &report)> run;
};

/** Everything the writers need about one finished experiment. */
struct ExperimentOutcome
{
    const Experiment *experiment = nullptr;
    Report report;

    /** Unique-cell ids the grid resolved to, first-use order. */
    std::vector<size_t> cells;

    /** Wall time of resolving the grid plus the run hook. */
    double wallMs = 0.0;
    bool ok = true;

    /** What the failure threw, when !ok. */
    std::string error;
};

/** Queue every cell of @p experiment's grid on @p scheduler without
 *  waiting for results. */
void prefetchGrid(const Experiment &experiment, CellScheduler &scheduler);

/**
 * Resolve @p experiment's grid on @p scheduler (in grid order) and run
 * its hook over the runs. A failure — an unknown workload, an
 * unbuildable spec, a throwing hook — is caught into the outcome
 * (ok == false, error = its what()); the scheduler stays usable for
 * the next experiment.
 */
ExperimentOutcome runExperiment(const Experiment &experiment,
                                CellScheduler &scheduler);

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
