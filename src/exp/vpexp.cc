#include "exp/vpexp.hh"

#include <chrono>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <optional>
#include <set>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include <unistd.h>

#include "exp/confidence.hh"
#include "exp/experiment.hh"
#include "exp/report.hh"
#include "exp/spec.hh"
#include "obs/trace_log.hh"
#include "sim/table.hh"
#include "util/mutex.hh"

namespace vp::exp {

namespace {

namespace fs = std::filesystem;

const char *const usageText =
        "usage: vpexp [--list] [--all] [experiment ...]\n"
        "             [--dry-run] [--jobs N] [--out DIR]\n"
        "             [--format table,csv,json] [--trace-cache DIR]\n"
        "             [--window N] [--stats] [--progress]\n"
        "             [--trace-json FILE]\n"
        "\n"
        "  --list         list registered experiments and exit\n"
        "  --spec-help    print the predictor spec grammar and exit\n"
        "  --all          run every registered experiment\n"
        "  --dry-run      shrink workloads to smoke scale\n"
        "  --jobs N       cell worker threads (default: hardware)\n"
        "  --window N     sample per-predictor coverage/accuracy every\n"
        "                 N events into each cell's windows series\n"
        "                 (JSON + windows.csv)\n"
        "  --stats        print the merged instrumentation counters of\n"
        "                 every cell after the experiment tables\n"
        "  --progress     live cell completion line on stderr\n"
        "                 (only when stderr is a TTY)\n"
        "  --trace-json FILE\n"
        "                 write a Chrome trace-event timeline of the\n"
        "                 run (cells, replay, trace-cache, reports)\n"
        "                 loadable in Perfetto\n"
        "  --out DIR      write <exp>.txt, <exp>.<table>.csv and\n"
        "                 BENCH_results.json under DIR\n"
        "  --format LIST  comma list of table,csv,json\n"
        "                 (default: table; all three with --out)\n"
        "  --trace-cache DIR\n"
        "                 share recorded workload traces across runs\n"
        "                 (you own invalidating it)\n";

struct DriverOptions
{
    std::vector<std::string> names;
    bool all = false;
    bool list = false;
    bool specHelp = false;
    bool dryRun = false;
    bool help = false;
    unsigned jobs = 0;
    uint64_t window = 0;
    bool stats = false;
    bool progress = false;
    std::string traceJson;
    std::string out;
    std::string formatList;     // raw --format value; empty = default
    std::string traceCacheDir;
    bool ok = true;
    std::string error;
};

/** Accept "--flag value" and "--flag=value". */
bool
takeValue(const std::string &arg, const char *flag, int argc,
          const char *const *argv, int &i, std::string &value,
          DriverOptions &options)
{
    const std::string name(flag);
    if (arg == name) {
        if (i + 1 >= argc) {
            options.ok = false;
            options.error = name + " needs a value";
            return true;
        }
        value = argv[++i];
        return true;
    }
    if (arg.rfind(name + "=", 0) == 0) {
        value = arg.substr(name.size() + 1);
        return true;
    }
    return false;
}

DriverOptions
parseArgs(int argc, const char *const *argv)
{
    DriverOptions options;
    for (int i = 1; i < argc && options.ok; ++i) {
        const std::string arg = argv[i];
        std::string value;
        if (arg == "--list") {
            options.list = true;
        } else if (arg == "--spec-help") {
            options.specHelp = true;
        } else if (arg == "--all") {
            options.all = true;
        } else if (arg == "--dry-run") {
            options.dryRun = true;
        } else if (arg == "--help" || arg == "-h") {
            options.help = true;
        } else if (takeValue(arg, "--jobs", argc, argv, i, value,
                             options)) {
            if (!options.ok)
                break;
            try {
                size_t consumed = 0;
                const int jobs = std::stoi(value, &consumed);
                if (jobs < 0 || consumed != value.size())
                    throw std::invalid_argument(value);
                options.jobs = static_cast<unsigned>(jobs);
            } catch (const std::exception &) {
                options.ok = false;
                options.error = "bad --jobs value: " + value;
            }
        } else if (takeValue(arg, "--window", argc, argv, i, value,
                             options)) {
            if (!options.ok)
                break;
            try {
                size_t consumed = 0;
                const long long window = std::stoll(value, &consumed);
                if (window < 1 || consumed != value.size())
                    throw std::invalid_argument(value);
                options.window = static_cast<uint64_t>(window);
            } catch (const std::exception &) {
                options.ok = false;
                options.error = "bad --window value: " + value;
            }
        } else if (arg == "--stats") {
            options.stats = true;
        } else if (arg == "--progress") {
            options.progress = true;
        } else if (takeValue(arg, "--trace-json", argc, argv, i, value,
                             options)) {
            options.traceJson = value;
        } else if (takeValue(arg, "--out", argc, argv, i, value,
                             options)) {
            options.out = value;
        } else if (takeValue(arg, "--format", argc, argv, i, value,
                             options)) {
            options.formatList = value;
        } else if (takeValue(arg, "--trace-cache", argc, argv, i,
                             value, options)) {
            options.traceCacheDir = value;
        } else if (!arg.empty() && arg[0] == '-') {
            options.ok = false;
            options.error = "unknown option: " + arg;
        } else {
            options.names.push_back(arg);
        }
    }
    return options;
}

std::set<std::string>
parseFormats(const DriverOptions &options, bool &ok, std::string &error)
{
    std::set<std::string> formats;
    if (options.formatList.empty()) {
        formats.insert("table");
        if (!options.out.empty()) {
            formats.insert("csv");
            formats.insert("json");
        }
        return formats;
    }
    std::istringstream in(options.formatList);
    std::string format;
    while (std::getline(in, format, ',')) {
        if (format != "table" && format != "csv" && format != "json") {
            ok = false;
            error = "unknown --format: " + format +
                    " (expected table, csv or json)";
            return formats;
        }
        formats.insert(format);
    }
    if (formats.empty()) {
        ok = false;
        error = "empty --format list";
    }
    if (formats.count("csv") && options.out.empty()) {
        ok = false;
        error = "--format csv requires --out DIR";
    }
    return formats;
}

int
listExperiments(const ExperimentRegistry &registry)
{
    sim::TextTable table;
    table.row().cell("experiment").cell("description").rule();
    for (const auto &experiment : registry.all())
        table.row().cell(experiment.name).cell(experiment.description);
    std::printf("%s\n%zu experiments; run `vpexp <name> ...`, or "
                "`vpexp --all`.\n"
                "`vpexp --spec-help` documents the predictor spec "
                "grammar.\n",
                table.render().c_str(), registry.size());
    return 0;
}

/** Everything the writers need about one finished experiment. */
struct ExperimentOutcome
{
    const Experiment *experiment = nullptr;
    Report report;
    std::vector<size_t> cells;
    double wallMs = 0.0;
    bool ok = true;
    std::string error;
};

/**
 * One cell's counter snapshot as a JSON object: counters and gauges
 * as name -> value maps, histograms with their summary moments plus
 * the non-empty log2 buckets as [bucketLow, count] pairs.
 */
std::string
snapshotJson(const obs::Snapshot &snapshot)
{
    using report_writer::jsonEscape;
    using report_writer::jsonNumber;

    std::ostringstream out;
    out << "{\"counters\": {";
    bool first = true;
    for (const auto &[name, value] : snapshot.counters) {
        out << (first ? "" : ", ") << '"' << jsonEscape(name)
            << "\": " << value;
        first = false;
    }
    out << "}, \"gauges\": {";
    first = true;
    for (const auto &[name, value] : snapshot.gauges) {
        out << (first ? "" : ", ") << '"' << jsonEscape(name)
            << "\": " << value;
        first = false;
    }
    out << "}, \"histograms\": {";
    first = true;
    for (const auto &[name, hist] : snapshot.histograms) {
        out << (first ? "" : ", ") << '"' << jsonEscape(name)
            << "\": {\"count\": " << hist.count << ", \"sum\": "
            << hist.sum << ", \"min\": "
            << (hist.count ? hist.min : 0) << ", \"max\": " << hist.max
            << ", \"mean\": " << jsonNumber(hist.mean())
            << ", \"buckets\": [";
        bool first_bucket = true;
        for (int b = 0; b < obs::Histogram::numBuckets; ++b) {
            const uint64_t n = hist.buckets[static_cast<size_t>(b)];
            if (n == 0)
                continue;
            out << (first_bucket ? "" : ", ") << '['
                << obs::Histogram::bucketLow(b) << ", " << n << ']';
            first_bucket = false;
        }
        out << "]}";
        first = false;
    }
    out << "}}";
    return out.str();
}

/** One cell's windowed-telemetry series as a JSON object. */
std::string
windowsJson(const sim::WindowSeries &windows)
{
    std::ostringstream out;
    out << "{\"windowEvents\": " << windows.windowEvents
        << ", \"samples\": [";
    for (size_t s = 0; s < windows.samples.size(); ++s) {
        const auto &sample = windows.samples[s];
        out << (s ? ", " : "") << "{\"endEvent\": " << sample.endEvent
            << ", \"members\": [";
        for (size_t m = 0; m < sample.members.size(); ++m) {
            const auto &delta = sample.members[m];
            out << (m ? ", " : "") << "{\"eligible\": " << delta.eligible
                << ", \"predicted\": " << delta.predicted
                << ", \"correct\": " << delta.correct << '}';
        }
        out << "]}";
    }
    out << "]}";
    return out.str();
}

std::string
resultsJson(const std::vector<ExperimentOutcome> &outcomes,
            const CellScheduler &scheduler, const DriverOptions &options,
            double total_ms)
{
    using report_writer::jsonEscape;
    using report_writer::jsonNumber;

    std::ostringstream out;
    out << "{\n\"schema\": \"vpexp-results-v1\",\n";
    out << "\"dryRun\": " << (options.dryRun ? "true" : "false")
        << ",\n";
    out << "\"jobs\": " << scheduler.workers() << ",\n";
    out << "\"windowEvents\": " << options.window << ",\n";
    out << "\"wallMs\": " << jsonNumber(total_ms) << ",\n";
    out << "\"uniqueCells\": " << scheduler.uniqueCells() << ",\n";
    out << "\"requestedCells\": " << scheduler.requestedCells()
        << ",\n";

    out << "\"experiments\": [\n";
    for (size_t e = 0; e < outcomes.size(); ++e) {
        const auto &outcome = outcomes[e];
        out << "  {\"name\": \""
            << jsonEscape(outcome.experiment->name) << "\", \"title\": \""
            << jsonEscape(outcome.experiment->title) << "\", \"ok\": "
            << (outcome.ok ? "true" : "false") << ", \"wallMs\": "
            << jsonNumber(outcome.wallMs) << ", \"cells\": [";
        for (size_t i = 0; i < outcome.cells.size(); ++i)
            out << (i ? ", " : "") << outcome.cells[i];
        out << "], \"report\": "
            << (outcome.ok ? report_writer::renderJson(outcome.report)
                           : "null");
        if (!outcome.ok)
            out << ", \"error\": \"" << jsonEscape(outcome.error)
                << '"';
        out << '}' << (e + 1 < outcomes.size() ? "," : "") << '\n';
    }
    out << "],\n";

    out << "\"cells\": [\n";
    const auto records = scheduler.records();
    for (size_t c = 0; c < records.size(); ++c) {
        const auto &record = records[c];
        out << "  {\"id\": " << c << ", \"workload\": \""
            << jsonEscape(record.workload) << "\", \"input\": \""
            << jsonEscape(record.config.input) << "\", \"flags\": \""
            << jsonEscape(record.config.flags) << "\", \"scale\": "
            << record.config.scale << ", \"done\": "
            << (record.done ? "true" : "false") << ", \"wallMs\": "
            << jsonNumber(record.wallMs) << ", \"queuedMs\": "
            << jsonNumber(record.queuedMs);
        if (record.estimatedMs) {
            out << ", \"estimatedMs\": "
                << jsonNumber(*record.estimatedMs);
        }
        out << ", \"events\": " << record.events << ", \"nsPerEvent\": "
            << jsonNumber(record.events
                                  ? record.wallMs * 1e6 /
                                            static_cast<double>(
                                                    record.events)
                                  : 0.0)
            << ", \"predictors\": [";
        for (size_t p = 0; p < record.predictors.size(); ++p) {
            const auto &[spec, stats] = record.predictors[p];
            out << (p ? ", " : "") << "{\"spec\": \""
                << jsonEscape(spec) << "\", \"eligible\": "
                << stats.total() << ", \"predicted\": "
                << stats.predicted() << ", \"correct\": "
                << stats.correct() << ", \"coverage\": "
                << jsonNumber(stats.coverage()) << ", \"accuracy\": "
                << jsonNumber(stats.accuracy())
                << ", \"accuracyWhenPredicted\": "
                << jsonNumber(stats.accuracyWhenPredicted());
            for (const double cost : speculationCosts()) {
                out << ", \"profitAtCost"
                    << static_cast<int>(cost) << "\": "
                    << jsonNumber(stats.profit(cost));
            }
            out << '}';
        }
        out << "], \"counters\": " << snapshotJson(record.counters);
        if (record.windows.windowEvents != 0)
            out << ", \"windows\": " << windowsJson(record.windows);
        out << '}' << (c + 1 < records.size() ? "," : "") << '\n';
    }
    out << "]\n}\n";
    return out.str();
}

/**
 * Windowed telemetry as one flat CSV (written as windows.csv under
 * --out): a row per (cell, window, predictor).
 */
std::string
windowsCsv(const std::vector<CellScheduler::CellRecord> &records)
{
    std::ostringstream out;
    out << "cell,workload,spec,endEvent,eligible,predicted,correct\n";
    for (size_t c = 0; c < records.size(); ++c) {
        const auto &record = records[c];
        for (const auto &sample : record.windows.samples) {
            for (size_t m = 0; m < sample.members.size(); ++m) {
                const auto &delta = sample.members[m];
                const std::string spec =
                        m < record.predictors.size()
                                ? record.predictors[m].first
                                : "";
                out << c << ',' << record.workload << ',' << spec << ','
                    << sample.endEvent << ',' << delta.eligible << ','
                    << delta.predicted << ',' << delta.correct << '\n';
            }
        }
    }
    return out.str();
}

/**
 * `--stats`: the run's instrumentation, merged across every cell
 * (counters/histograms sum, gauges keep their maximum) and printed as
 * text tables.
 */
void
printStatsTables(const std::vector<CellScheduler::CellRecord> &records)
{
    obs::Snapshot total;
    for (const auto &record : records)
        total.merge(record.counters);
    if (total.empty()) {
        std::printf("vpexp: no instrumentation counters collected\n");
        return;
    }

    sim::TextTable table;
    table.row().cell("metric").cell("value").rule();
    for (const auto &[name, value] : total.counters)
        table.row().cell(name).cell(std::to_string(value));
    for (const auto &[name, value] : total.gauges)
        table.row().cell(name + " (max)").cell(std::to_string(value));
    std::printf("instrumentation counters (%zu cells)\n\n%s",
                records.size(), table.render().c_str());

    if (!total.histograms.empty()) {
        sim::TextTable hists;
        hists.row().cell("histogram").cell("count").cell("mean")
                .cell("min").cell("max").rule();
        for (const auto &[name, hist] : total.histograms) {
            char mean[32];
            std::snprintf(mean, sizeof(mean), "%.2f", hist.mean());
            hists.row().cell(name).cell(std::to_string(hist.count))
                    .cell(mean)
                    .cell(std::to_string(hist.count ? hist.min : 0))
                    .cell(std::to_string(hist.max));
        }
        std::printf("\n%s", hists.render().c_str());
    }
    std::printf("\n");
}

/**
 * `--progress`: a live completion line on stderr, refreshed a few
 * times a second from CellScheduler::progress() by a tiny poller
 * thread. Only active when stderr is a terminal; clear() erases the
 * line so regular output can interleave cleanly.
 */
class ProgressMeter
{
  public:
    ProgressMeter(const CellScheduler &scheduler, bool enabled)
        : scheduler_(scheduler)
    {
        if (enabled && isatty(fileno(stderr)) != 0)
            thread_ = std::thread([this] { loop(); });
    }

    ~ProgressMeter() { stop(); }

    /** Erase the progress line (before printing to the terminal). */
    void
    clear()
    {
        if (!thread_.joinable())
            return;
        const util::MutexLock lock(mutex_);
        eraseLine();
    }

    void
    stop()
    {
        if (!thread_.joinable())
            return;
        {
            const util::MutexLock lock(mutex_);
            stop_ = true;
        }
        wake_.notify_all();
        thread_.join();
        eraseLine();
    }

  private:
    static void
    eraseLine()
    {
        std::fprintf(stderr, "\r\33[2K");
        std::fflush(stderr);
    }

    void
    loop()
    {
        // Manual predicate loop: a wait_for predicate lambda would
        // read stop_ from an unannotated scope (thread-safety
        // analysis treats lambda bodies as separate functions).
        const util::MutexLock lock(mutex_);
        while (!stop_) {
            const CellScheduler::Progress p = scheduler_.progress();
            std::fprintf(stderr, "\r\33[2Kvpexp: %zu/%zu cells done",
                         p.cellsDone, p.cellsTotal);
            std::fflush(stderr);
            wake_.wait_for(mutex_, std::chrono::milliseconds(200));
        }
    }

    const CellScheduler &scheduler_;
    util::Mutex mutex_;
    util::CondVar wake_;
    bool stop_ VP_GUARDED_BY(mutex_) = false;
    std::thread thread_;
};

bool
writeFile(const fs::path &path, const std::string &content)
{
    std::ofstream out(path, std::ios::trunc);
    out << content;
    out.close();    // surface flush-time errors (disk full) in state
    return static_cast<bool>(out);
}

} // anonymous namespace

int
vpexpMain(int argc, const char *const *argv)
{
    DriverOptions options = parseArgs(argc, argv);
    if (options.help) {
        std::fputs(usageText, stdout);
        return 0;
    }
    if (options.specHelp) {
        std::fputs(specGrammarHelp(), stdout);
        return 0;
    }
    if (options.ok && !options.list && !options.all &&
        options.names.empty()) {
        options.ok = false;
        options.error = "nothing to run (name experiments, or use "
                        "--all / --list)";
    }

    std::set<std::string> formats;
    if (options.ok)
        formats = parseFormats(options, options.ok, options.error);

    const auto &reg = registry();
    std::vector<const Experiment *> selected;
    if (options.ok && !options.list) {
        if (options.all) {
            for (const auto &experiment : reg.all())
                selected.push_back(&experiment);
        }
        for (const auto &name : options.names) {
            const Experiment *experiment = reg.find(name);
            if (experiment == nullptr) {
                options.ok = false;
                options.error = "unknown experiment: " + name +
                                " (see vpexp --list)";
                break;
            }
            bool already = false;
            for (const auto *chosen : selected)
                already = already || chosen == experiment;
            if (!already)
                selected.push_back(experiment);
        }
    }

    if (!options.ok) {
        std::fprintf(stderr, "vpexp: %s\n%s", options.error.c_str(),
                     usageText);
        return 2;
    }
    if (options.list)
        return listExperiments(reg);

    ExperimentConfig config;
    config.dryRun = options.dryRun;
    config.traceCacheDir = options.traceCacheDir;
    config.windowEvents = options.window;

    std::optional<obs::TraceLog> traceLog;
    if (!options.traceJson.empty()) {
        traceLog.emplace();
        config.traceLog = &*traceLog;
    }

    using Clock = std::chrono::steady_clock;
    const auto run_start = Clock::now();
    CellScheduler scheduler(config, options.jobs);
    ProgressMeter meter(scheduler, options.progress);

    // Queue every declared cell of every selected experiment before
    // the first hook blocks: the worker pool then crunches the whole
    // multi-experiment grid at once (deduplicated across experiments).
    for (const auto *experiment : selected) {
        if (experiment->grid) {
            for (const auto &suite : experiment->grid(config))
                scheduler.prefetch(suite);
        }
    }

    const bool print_tables = formats.count("table") != 0;
    bool failed = false;
    std::vector<ExperimentOutcome> outcomes;
    outcomes.reserve(selected.size());
    for (const auto *experiment : selected) {
        ExperimentOutcome outcome;
        outcome.experiment = experiment;
        ExperimentContext ctx(config, scheduler);
        const auto start = Clock::now();
        try {
            auto span = obs::TraceLog::span(config.traceLog,
                                            "report " + experiment->name,
                                            "report");
            experiment->run(ctx);
        } catch (const std::exception &e) {
            outcome.ok = false;
            outcome.error = e.what();
            failed = true;
        }
        outcome.wallMs = std::chrono::duration<double, std::milli>(
                                 Clock::now() - start)
                                 .count();
        outcome.report = std::move(ctx.report());
        outcome.cells = ctx.cellsUsed();

        if (!outcome.ok) {
            meter.clear();
            std::fprintf(stderr, "vpexp: experiment %s failed: %s\n",
                         experiment->name.c_str(),
                         outcome.error.c_str());
        } else if (print_tables) {
            meter.clear();
            std::printf("%s\n\n%s",
                        experiment->title.c_str(),
                        report_writer::renderText(outcome.report)
                                .c_str());
        }
        outcomes.push_back(std::move(outcome));
    }
    const double total_ms = std::chrono::duration<double, std::milli>(
                                    Clock::now() - run_start)
                                    .count();
    meter.stop();

    if (options.stats)
        printStatsTables(scheduler.records());

    if (print_tables) {
        std::printf("vpexp: %zu experiment%s, %zu unique cell%s "
                    "(%zu requested, %zu deduplicated), %u worker%s, "
                    "%.0f ms\n",
                    selected.size(), selected.size() == 1 ? "" : "s",
                    scheduler.uniqueCells(),
                    scheduler.uniqueCells() == 1 ? "" : "s",
                    scheduler.requestedCells(),
                    scheduler.requestedCells() -
                            scheduler.uniqueCells(),
                    scheduler.workers(),
                    scheduler.workers() == 1 ? "" : "s", total_ms);
    }

    std::string json;
    if (formats.count("json"))
        json = resultsJson(outcomes, scheduler, options, total_ms);

    if (!options.out.empty()) {
        std::error_code ec;
        fs::create_directories(options.out, ec);
        if (ec) {
            std::fprintf(stderr, "vpexp: cannot create %s: %s\n",
                         options.out.c_str(),
                         ec.message().c_str());
            return 1;
        }
        const fs::path out(options.out);
        bool wrote = true;
        for (const auto &outcome : outcomes) {
            if (!outcome.ok)
                continue;
            const auto &name = outcome.experiment->name;
            if (formats.count("table")) {
                wrote = wrote &&
                        writeFile(out / (name + ".txt"),
                                  outcome.experiment->title + "\n\n" +
                                          report_writer::renderText(
                                                  outcome.report));
            }
            if (formats.count("csv")) {
                for (const auto &table : outcome.report.tables()) {
                    wrote = wrote &&
                            writeFile(out / (name + "." + table.id() +
                                             ".csv"),
                                      report_writer::renderCsv(table));
                }
            }
        }
        if (formats.count("json")) {
            wrote = wrote &&
                    writeFile(out / "BENCH_results.json", json);
        }
        if (options.window != 0) {
            wrote = wrote && writeFile(out / "windows.csv",
                                       windowsCsv(scheduler.records()));
        }
        if (!wrote) {
            std::fprintf(stderr, "vpexp: failed writing under %s\n",
                         options.out.c_str());
            return 1;
        }
    } else if (formats.count("json")) {
        std::fputs(json.c_str(), stdout);
    }

    if (traceLog) {
        if (!writeFile(fs::path(options.traceJson),
                       traceLog->render())) {
            std::fprintf(stderr, "vpexp: cannot write %s\n",
                         options.traceJson.c_str());
            return 1;
        }
    }

    return failed ? 1 : 0;
}

} // namespace vp::exp
