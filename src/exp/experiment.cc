#include "exp/experiment.hh"

#include <chrono>
#include <cstddef>
#include <sstream>
#include <stdexcept>

#include "obs/instrumentation.hh"
#include "workloads/workload.hh"

namespace vp::exp {

SuiteOptions
normalizeCellOptions(SuiteOptions options, const ExperimentConfig &config)
{
    if (config.dryRun)
        options.config.scale = dryRunScale;
    options.traceReplay = true;
    options.traceCacheDir = config.traceCacheDir;
    // The scheduler installs its own per-cell handle; a caller-set one
    // must not leak into the cell (it is not part of cell identity).
    options.instrumentation = nullptr;
    options.windowEvents = config.windowEvents;
    if (options.improvementA == options.improvementB) {
        // Equal indices mean "off" (runBenchmark ignores the values);
        // canonicalise so off-requests always share a dedup key.
        options.improvementA = options.improvementB = 0;
    }
    return options;
}

namespace {

/**
 * The trace half of a cell's dedup key: the workload and the
 * configuration fields that pick its recorded trace.
 */
std::string
traceKey(const std::string &workload, const SuiteOptions &options)
{
    std::ostringstream key;
    key << workload << '\x1f' << options.config.input << '\x1f'
        << options.config.flags << '\x1f' << options.config.scale
        << '\x1f';
    return key.str();
}

/**
 * The bank half: every other normalized-options field that can
 * change a BenchmarkRun. traceKey + bankKey is a cell's dedup key;
 * the benchmarks list is deliberately absent — a cell is one
 * workload.
 */
std::string
bankKey(const SuiteOptions &options)
{
    std::ostringstream key;
    key << options.overlap << '\x1f' << options.improvementA << '\x1f'
        << options.improvementB << '\x1f' << options.values << '\x1f'
        << options.traceReplay << '\x1f' << options.traceCacheDir
        << '\x1f' << options.windowEvents << '\x1f';
    for (const auto &spec : options.predictors)
        key << spec << '\x1e';
    return key.str();
}

std::vector<std::string>
cellWorkloads(const SuiteOptions &options)
{
    if (!options.benchmarks.empty())
        return options.benchmarks;
    std::vector<std::string> names;
    for (const auto &info : workloads::allWorkloads())
        names.push_back(info.name);
    return names;
}

} // anonymous namespace

CellScheduler::CellScheduler(const ExperimentConfig &config, unsigned jobs)
    : config_(config)
{
    workers_ = jobs;
    if (workers_ == 0) {
        workers_ = std::thread::hardware_concurrency();
        if (workers_ == 0)
            workers_ = 1;
    }
    threads_.reserve(workers_);
    for (unsigned t = 0; t < workers_; ++t)
        threads_.emplace_back([this] { workerLoop(); });
}

CellScheduler::~CellScheduler()
{
    {
        const util::MutexLock lock(mutex_);
        stop_ = true;
        // Abandon cells nobody will ever read (a failed run tears the
        // scheduler down with work still queued); their futures get
        // broken promises, but no waiter can exist at destruction.
        queue_.clear();
    }
    available_.notify_all();
    for (auto &thread : threads_)
        thread.join();
}

/** The pick rules of the class comment, in order. */
size_t
CellScheduler::pickNext(std::optional<double> &estimate_ms) const
{
    for (size_t i = 0; i < queue_.size(); ++i) {
        if (!queue_[i].trace->started)
            return i;
    }
    for (size_t i = 0; i < queue_.size(); ++i) {
        if (!queue_[i].bank->started)
            return i;
    }
    size_t longest = queue_.size();
    for (size_t i = 0; i < queue_.size(); ++i) {
        const QueuedCell &cell = queue_[i];
        if (!cell.trace->measured || !cell.bank->measured)
            continue;
        const double ms = cell.bank->value * cell.trace->value;
        if (longest == queue_.size() || ms > *estimate_ms) {
            longest = i;
            estimate_ms = ms;
        }
    }
    return longest < queue_.size() ? longest : 0;
}

void
CellScheduler::workerLoop()
{
    for (;;) {
        std::packaged_task<void()> task;
        {
            const util::MutexLock lock(mutex_);
            // Predicate loop spelled out so the guarded reads stay in
            // this (annotated) scope — see util/mutex.hh.
            while (!stop_ && queue_.empty())
                available_.wait(mutex_);
            if (queue_.empty())
                return;     // stop requested and queue drained
            std::optional<double> estimate_ms;
            const size_t next = pickNext(estimate_ms);
            QueuedCell &cell = queue_[next];
            cell.trace->started = true;
            cell.bank->started = true;
            records_[cell.id].estimatedMs = estimate_ms;
            task = std::move(cell.task);
            queue_.erase(queue_.begin() + static_cast<std::ptrdiff_t>(next));
        }
        task();
    }
}

/**
 * Per-cell observability: the registry the cell's task feeds and the
 * Instrumentation handle the suite layer sees. The task closure holds
 * it by shared_ptr so it outlives the submit() call; the task
 * snapshots the registry into the CellRecord after runBenchmark has
 * returned on the same thread, which is the synchronisation
 * Registry::snapshot requires.
 */
struct CellScheduler::CellObs
{
    explicit CellObs(obs::TraceLog *log)
        : instrumentation(&registry, log)
    {
    }

    obs::Registry registry;
    obs::Instrumentation instrumentation;
};

std::shared_future<BenchmarkRun>
CellScheduler::submit(const std::string &workload,
                      const SuiteOptions &options, size_t *id)
{
    const std::string trace_key = traceKey(workload, options);
    const std::string bank_key = bankKey(options);
    const std::string key = trace_key + bank_key;
    const util::MutexLock lock(mutex_);
    ++requested_;
    if (const auto it = cells_.find(key); it != cells_.end()) {
        if (id)
            *id = it->second.first;
        return it->second.second;
    }

    const size_t cell_id = records_.size();
    CellRecord record;
    record.workload = workload;
    record.config = options.config;
    records_.push_back(std::move(record));

    // Every cell gets its own registry; the run-wide trace log (when
    // the driver attached one) is shared. The handle is deliberately
    // absent from the dedup key — see normalizeCellOptions.
    auto cell_obs = std::make_shared<CellObs>(config_.traceLog);
    SuiteOptions cell_options = options;
    cell_options.instrumentation = &cell_obs->instrumentation;

    using Clock = std::chrono::steady_clock;
    const auto submitted = Clock::now();
    auto promise = std::make_shared<std::promise<BenchmarkRun>>();
    std::shared_future<BenchmarkRun> future =
            promise->get_future().share();
    Cost *trace = &traces_[trace_key];
    Cost *bank = &banks_[bank_key];
    std::packaged_task<void()> task([this, cell_id, workload, cell_options,
                                     cell_obs, submitted, promise, trace,
                                     bank] {
        const auto start = Clock::now();
        try {
            BenchmarkRun run;
            {
                auto timeline = cell_obs->instrumentation.span(
                        "cell " + workload, "cell");
                run = runBenchmark(workload, cell_options);
            }
            const double wall_ms = std::chrono::duration<double, std::milli>(
                                           Clock::now() - start)
                                           .count();
            {
                const util::MutexLock lock(mutex_);
                auto &rec = records_[cell_id];
                rec.wallMs = wall_ms;
                rec.queuedMs = std::chrono::duration<double, std::milli>(
                                       start - submitted)
                                       .count();
                rec.events = run.exec.predicted;
                rec.predictors = run.predictors;
                rec.windows = run.windows;
                rec.counters = cell_obs->registry.snapshot();
                rec.done = true;
                ++cellsDone_;
                // The first finished cell of a trace and of a bank
                // measures it for the pick rules.
                if (!trace->measured) {
                    trace->measured = true;
                    trace->value = static_cast<double>(rec.events);
                }
                if (!bank->measured && rec.events != 0) {
                    bank->measured = true;
                    bank->value =
                            wall_ms / static_cast<double>(rec.events);
                }
            }
            promise->set_value(std::move(run));
        } catch (...) {
            // A failed cell is finished too: progress must still reach
            // the total (its record stays done == false). It measures
            // nothing, and lets the next cell of its trace and bank
            // record and measure them.
            {
                const util::MutexLock lock(mutex_);
                ++cellsDone_;
                trace->started = trace->measured;
                bank->started = bank->measured;
            }
            promise->set_exception(std::current_exception());
        }
    });
    queue_.push_back(QueuedCell{cell_id, trace, bank, std::move(task)});
    available_.notify_one();

    cells_.emplace(key, std::make_pair(cell_id, future));
    if (id)
        *id = cell_id;
    return future;
}

void
CellScheduler::prefetch(const SuiteOptions &options)
{
    const SuiteOptions cell = normalizeCellOptions(options, config_);
    for (const auto &workload : cellWorkloads(cell))
        submit(workload, cell, nullptr);
}

std::vector<BenchmarkRun>
CellScheduler::suite(const SuiteOptions &options,
                     std::vector<size_t> *cell_ids)
{
    const SuiteOptions cell = normalizeCellOptions(options, config_);
    const auto names = cellWorkloads(cell);

    std::vector<std::shared_future<BenchmarkRun>> futures;
    futures.reserve(names.size());
    for (const auto &workload : names) {
        size_t id = 0;
        futures.push_back(submit(workload, cell, &id));
        if (cell_ids)
            cell_ids->push_back(id);
    }

    std::vector<BenchmarkRun> runs;
    runs.reserve(futures.size());
    for (auto &future : futures)
        runs.push_back(future.get());
    return runs;
}

size_t
CellScheduler::requestedCells() const
{
    const util::MutexLock lock(mutex_);
    return requested_;
}

size_t
CellScheduler::uniqueCells() const
{
    const util::MutexLock lock(mutex_);
    return records_.size();
}

std::vector<CellScheduler::CellRecord>
CellScheduler::records() const
{
    const util::MutexLock lock(mutex_);
    return records_;
}

CellScheduler::Progress
CellScheduler::progress() const
{
    const util::MutexLock lock(mutex_);
    Progress progress;
    progress.cellsDone = cellsDone_;
    progress.cellsTotal = records_.size();
    return progress;
}

std::vector<BenchmarkRun>
ExperimentContext::suite(const SuiteOptions &options)
{
    std::vector<size_t> ids;
    auto runs = scheduler_.suite(options, &ids);
    for (const size_t id : ids) {
        bool seen = false;
        for (const size_t used : cellsUsed_)
            seen = seen || used == id;
        if (!seen)
            cellsUsed_.push_back(id);
    }
    return runs;
}

void
ExperimentRegistry::add(Experiment experiment)
{
    if (experiment.name.empty()) {
        throw std::invalid_argument(
                "experiment registration without a name");
    }
    if (!experiment.run) {
        throw std::invalid_argument(
                "experiment '" + experiment.name + "' has no run hook");
    }
    if (find(experiment.name) != nullptr) {
        throw std::invalid_argument("duplicate experiment name: " +
                                    experiment.name);
    }
    experiments_.push_back(std::move(experiment));
}

const Experiment *
ExperimentRegistry::find(const std::string &name) const
{
    for (const auto &experiment : experiments_) {
        if (experiment.name == name)
            return &experiment;
    }
    return nullptr;
}

} // namespace vp::exp
