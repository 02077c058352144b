#include "exp/suite.hh"

#include <filesystem>
#include <fstream>
#include <map>
#include <stdexcept>

#include <unistd.h>

#include "exp/spec.hh"
#include "obs/instrumentation.hh"
#include "obs/registry_sink.hh"
#include "sim/driver.hh"
#include "util/mutex.hh"
#include "vm/trace_file.hh"

namespace vp::exp {

core::PredictorPtr
makePredictor(const std::string &spec)
{
    // The grammar and construction live in the typed PredictorSpec
    // model (exp/spec.hh); this shim keeps the historic entry point.
    return parseSpec(spec).build();
}

double
BenchmarkRun::accuracyPct(size_t index) const
{
    return 100.0 * predictors.at(index).second.accuracy();
}

double
BenchmarkRun::accuracyPct(size_t index, isa::Category cat) const
{
    return 100.0 * predictors.at(index).second.accuracy(cat);
}

namespace {

namespace fs = std::filesystem;

/**
 * The default trace cache: a mkdtemp-unique directory (PID reuse must
 * not resurrect a previous binary's recordings) removed when the
 * process exits, so the temp dir does not accumulate one cache per
 * run.
 */
const fs::path &
processTraceCacheDir()
{
    static const struct ProcessDir
    {
        fs::path path;

        ProcessDir()
        {
            std::string templ =
                    (fs::temp_directory_path() / "vp-traces-XXXXXX")
                            .string();
            if (::mkdtemp(templ.data()) == nullptr) {
                throw std::runtime_error(
                        "cannot create trace cache directory: " + templ);
            }
            path = templ;
        }

        ~ProcessDir()
        {
            std::error_code ec;       // best effort; never throw here
            fs::remove_all(path, ec);
        }
    } dir;
    return dir.path;
}

/**
 * Trace-cache layout: one <workload>-<input>-<flags>-s<scale>.vpt
 * trace plus a .meta sidecar holding the dynamic ExecStats the replay
 * path cannot recompute without executing the VM.
 */
fs::path
traceCacheBase(const std::string &name, const SuiteOptions &options)
{
    const fs::path dir = options.traceCacheDir.empty()
                                 ? processTraceCacheDir()
                                 : fs::path(options.traceCacheDir);
    fs::create_directories(dir);
    return dir / (name + "-" + options.config.input + "-" +
                  options.config.flags + "-s" +
                  std::to_string(options.config.scale));
}

/** One mutex per cache entry so parallel scheduler cells record
 *  different workloads concurrently but never the same one twice.
 *  The table is append-only and node-based, so a returned reference
 *  stays valid while other entries are created. */
util::Mutex &
traceCacheMutex(const fs::path &base)
{
    static util::Mutex table_mutex;
    static std::map<std::string, util::Mutex> table;
    const util::MutexLock lock(table_mutex);
    return table[base.string()];
}

bool
readTraceMeta(const fs::path &path, vm::ExecStats &stats)
{
    std::ifstream in(path);
    std::string magic;
    if (!(in >> magic) || magic != "VPMETA1")
        return false;
    if (!(in >> stats.retired >> stats.predicted))
        return false;
    for (int c = 0; c < isa::numCategories; ++c) {
        if (!(in >> stats.byCategory[c]))
            return false;
    }
    return true;
}

/** Run the VM once, stream the trace to disk, write the sidecar.
 *  Both files land via rename so readers never see partial writes;
 *  the tmp names carry the PID so two processes cold-starting a
 *  *shared* cache dir never interleave writes — each renames a
 *  complete recording and last-writer-wins. If anything throws
 *  between write and rename, both tmp files are removed before the
 *  error propagates (a shared cache dir must not accumulate orphans).
 */
void
recordTrace(const isa::Program &prog, const fs::path &base)
{
    const std::string pid = std::to_string(::getpid());
    const fs::path vpt_tmp = base.string() + ".vpt.tmp." + pid;
    const fs::path meta_tmp = base.string() + ".meta.tmp." + pid;

    try {
        vm::RunResult result;
        {
            std::ofstream out(vpt_tmp,
                              std::ios::binary | std::ios::trunc);
            if (!out) {
                throw std::runtime_error(
                        "cannot write trace cache file: " +
                        vpt_tmp.string());
            }
            vm::Vpt2Writer writer(out);
            vm::Machine machine;
            machine.setSink(&writer);
            result = machine.run(prog);
            if (!result.ok()) {
                throw std::runtime_error(
                        "workload '" + prog.name +
                        "' did not halt cleanly: " +
                        vm::exitReasonName(result.reason) +
                        (result.diagnostic.empty()
                                 ? ""
                                 : " (" + result.diagnostic + ")"));
            }
            writer.finish();
            if (!out) {
                throw std::runtime_error(
                        "failed writing trace cache file: " +
                        vpt_tmp.string());
            }
        }
        {
            std::ofstream meta(meta_tmp, std::ios::trunc);
            meta << "VPMETA1\n"
                 << result.stats.retired << " "
                 << result.stats.predicted << "\n";
            for (int c = 0; c < isa::numCategories; ++c)
                meta << result.stats.byCategory[c] << "\n";
            if (!meta) {
                throw std::runtime_error(
                        "cannot write trace cache meta: " +
                        meta_tmp.string());
            }
        }
        fs::rename(vpt_tmp, fs::path(base.string() + ".vpt"));
        fs::rename(meta_tmp, fs::path(base.string() + ".meta"));
    } catch (...) {
        std::error_code ec;         // best effort; keep the real error
        fs::remove(vpt_tmp, ec);
        fs::remove(meta_tmp, ec);
        throw;
    }
}

/**
 * Ensure the workload's trace and sidecar are on disk (executing the
 * VM only if the cache is cold or unreadable); fills @p stats from
 * the sidecar and returns the cache base path.
 */
fs::path
ensureTraceRecorded(const isa::Program &prog, const std::string &name,
                    const SuiteOptions &options, vm::ExecStats &stats)
{
    const fs::path base = traceCacheBase(name, options);
    const fs::path vpt = base.string() + ".vpt";
    const fs::path meta = base.string() + ".meta";

    obs::Instrumentation *obs = options.instrumentation;
    const util::MutexLock lock(traceCacheMutex(base));
    if (!fs::exists(vpt) || !readTraceMeta(meta, stats)) {
        obs::add(obs, "trace_cache.miss");
        obs::add(obs, "trace_cache.record");
        auto span = obs::span(obs, "record " + name, "trace-cache");
        recordTrace(prog, base);
        span.close();
        if (!readTraceMeta(meta, stats)) {
            throw std::runtime_error("unreadable trace cache meta: " +
                                     meta.string());
        }
    } else {
        obs::add(obs, "trace_cache.hit");
    }
    return base;
}

/** Pull a reader's cumulative I/O work into the cell's registry. */
void
collectTraceIo(const vm::Vpt2Reader &reader, obs::Instrumentation *obs)
{
    const vm::TraceIoStats io = reader.ioStats();
    obs::add(obs, "trace.io.blocks", io.blocksRead);
    obs::add(obs, "trace.io.raw_bytes", io.rawBytes);
    obs::add(obs, "trace.io.enc_bytes", io.encBytes);
    obs::add(obs, "trace.io.deflated_blocks", io.deflatedBlocks);
}

/** Pull every bank member's internal counters into the registry. */
void
collectBankCounters(const sim::PredictorBank &bank,
                    obs::Instrumentation *obs)
{
    if (obs == nullptr || obs->registry() == nullptr)
        return;
    obs::RegistrySink sink(obs->registry()->local());
    bank.collectCounters(sink);
}

/**
 * The record-once/replay-many path of runBenchmark: ensure the
 * workload's trace is on disk (executing the VM only if it is not,
 * or if the cache is unreadable), then replay the file into @p bank.
 */
sim::RunOutcome
replayedOutcome(const isa::Program &prog, const std::string &name,
                const SuiteOptions &options, sim::PredictorBank &bank,
                sim::WindowSeries *windows)
{
    sim::RunOutcome outcome;
    outcome.workload = prog.name;
    const fs::path base = ensureTraceRecorded(prog, name, options,
                                              outcome.vmResult.stats);
    const fs::path vpt = base.string() + ".vpt";
    obs::Instrumentation *obs = options.instrumentation;

    std::ifstream in(vpt, std::ios::binary);
    if (!in) {
        throw std::runtime_error("cannot open trace cache file: " +
                                 vpt.string());
    }
    try {
        // Stream the file through the batched hot path: bounded
        // memory (one block in flight) and one virtual dispatch per
        // (predictor, block) instead of two per event.
        const auto reader = vm::openTrace(in);
        vm::ReaderBatchSource source(*reader);
        auto span = obs::span(obs, "replay " + name, "replay");
        const uint64_t events =
                sim::replayTrace(source, bank, obs, windows);
        span.arg("events", std::to_string(events));
        span.close();
        // A cached trace with bytes beyond its promised event count
        // is corrupt (a partial overwrite, a concatenated file): the
        // stats above would silently describe a truncated stream.
        reader->expectEnd();
        collectTraceIo(*reader, obs);
    } catch (const vm::TraceFileError &error) {
        throw std::runtime_error("corrupt trace cache file " +
                                 vpt.string() + ": " + error.what());
    }

    outcome.staticPredicted = prog.countPredictedStatic();
    for (int c = 0; c < isa::numCategories; ++c) {
        outcome.staticByCategory[c] =
                prog.countPredictedStatic(static_cast<isa::Category>(c));
    }
    return outcome;
}

} // anonymous namespace

BenchmarkRun
runBenchmark(const std::string &name, const SuiteOptions &options)
{
    if (options.windowEvents != 0 && !options.traceReplay) {
        throw std::invalid_argument(
                "windowed telemetry requires trace replay");
    }
    const auto &info = workloads::findWorkload(name);
    const auto prog = info.build(options.config);

    sim::PredictorBank bank;
    for (const auto &spec : options.predictors)
        bank.add(makePredictor(spec));
    if (options.overlap > 0)
        bank.trackOverlap(options.overlap);
    if (options.improvementA != options.improvementB)
        bank.trackImprovement(options.improvementA, options.improvementB);
    if (options.values)
        bank.trackValues();

    sim::WindowSeries windows;
    windows.windowEvents = options.windowEvents;
    const auto outcome =
            options.traceReplay
                    ? replayedOutcome(prog, name, options, bank,
                                      options.windowEvents != 0
                                              ? &windows
                                              : nullptr)
                    : sim::runProgram(prog, bank);
    collectBankCounters(bank, options.instrumentation);

    BenchmarkRun run;
    run.name = name;
    run.windows = std::move(windows);
    run.exec = outcome.vmResult.stats;
    run.staticPredicted = outcome.staticPredicted;
    run.staticByCategory = outcome.staticByCategory;
    for (size_t i = 0; i < options.predictors.size(); ++i) {
        run.predictors.emplace_back(options.predictors[i],
                                    bank.member(i).stats);
    }
    if (bank.overlap())
        run.overlap = *bank.overlap();
    if (bank.improvement())
        run.improvement = *bank.improvement();
    if (bank.values())
        run.values = *bank.values();
    return run;
}

std::vector<BenchmarkRun>
runSuite(const SuiteOptions &options)
{
    std::vector<std::string> names = options.benchmarks;
    if (names.empty()) {
        for (const auto &info : workloads::allWorkloads())
            names.push_back(info.name);
    }
    std::vector<BenchmarkRun> runs;
    runs.reserve(names.size());
    for (const auto &name : names)
        runs.push_back(runBenchmark(name, options));
    return runs;
}

double
meanAccuracyPct(const std::vector<BenchmarkRun> &runs, size_t index)
{
    if (runs.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &run : runs)
        sum += run.accuracyPct(index);
    return sum / static_cast<double>(runs.size());
}

double
meanAccuracyPct(const std::vector<BenchmarkRun> &runs, size_t index,
                isa::Category cat)
{
    if (runs.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &run : runs)
        sum += run.accuracyPct(index, cat);
    return sum / static_cast<double>(runs.size());
}

const std::vector<isa::Category> &
reportedCategories()
{
    static const std::vector<isa::Category> cats = {
        isa::Category::AddSub, isa::Category::Loads,
        isa::Category::Logic, isa::Category::Shift,
        isa::Category::Set,
    };
    return cats;
}

} // namespace vp::exp
