/**
 * @file
 * vpsim: the command-line front end to the whole library — run any
 * workload against any predictor set, record traces, and analyze
 * recorded traces offline (the trace-driven methodology of the
 * paper, as a tool).
 *
 * Usage:
 *   vpsim run <workload> [options]        simulate + evaluate
 *   vpsim record <workload> <file.vpt>    save the value trace
 *   vpsim analyze <file.vpt> [options]    evaluate a recorded trace
 *   vpsim list                            list workloads/predictors
 *
 * Options:
 *   --predictors l,s2,fcm3    comma-separated predictor specs
 *   --input NAME              workload input (Table 6 analog)
 *   --flags NAME              codegen flags: none|O1|O2|ref (Table 7)
 *   --scale N                 work scale percent (default 100)
 *   --by-category             add the per-category breakdown
 */

#include <cstdio>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "exp/spec.hh"
#include "exp/suite.hh"
#include "sim/driver.hh"
#include "sim/table.hh"
#include "vm/machine.hh"
#include "vm/trace_file.hh"
#include "workloads/workload.hh"

using namespace vp;

namespace {

struct Options
{
    std::vector<std::string> predictors = {"l", "s2", "fcm1", "fcm2",
                                           "fcm3"};
    workloads::WorkloadConfig config;
    bool byCategory = false;
};

/** Split a spec list on commas — but not inside "hybrid(...)"
 *  compositions, whose components are comma-separated themselves. */
std::vector<std::string>
splitCommas(const std::string &text)
{
    std::vector<std::string> parts;
    std::string current;
    int depth = 0;
    for (const char c : text) {
        if (c == '(')
            ++depth;
        else if (c == ')' && depth > 0)
            --depth;
        if (c == ',' && depth == 0) {
            parts.push_back(current);
            current.clear();
        } else {
            current += c;
        }
    }
    parts.push_back(current);
    return parts;
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: vpsim run <workload> [options]\n"
                 "       vpsim record <workload> <file.vpt> [options]\n"
                 "       vpsim analyze <file.vpt> [options]\n"
                 "       vpsim list\n"
                 "options: --predictors l,s2,fcm3  --input NAME\n"
                 "         --flags none|O1|O2|ref  --scale N\n"
                 "         --by-category\n");
    return 2;
}

bool
parseOptions(int argc, char **argv, int first, Options &options)
{
    for (int i = first; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> const char * {
            return i + 1 < argc ? argv[++i] : nullptr;
        };
        if (arg == "--predictors") {
            const char *v = value();
            if (!v)
                return false;
            options.predictors = splitCommas(v);
        } else if (arg == "--input") {
            const char *v = value();
            if (!v)
                return false;
            options.config.input = v;
        } else if (arg == "--flags") {
            const char *v = value();
            if (!v)
                return false;
            options.config.flags = v;
        } else if (arg == "--scale") {
            const char *v = value();
            if (!v)
                return false;
            options.config.scale = std::atoi(v);
        } else if (arg == "--by-category") {
            options.byCategory = true;
        } else {
            std::fprintf(stderr, "unknown option %s\n", arg.c_str());
            return false;
        }
    }
    return true;
}

void
printReport(const sim::PredictorBank &bank, uint64_t retired,
            uint64_t predicted, bool by_category)
{
    if (retired) {
        std::printf("retired %llu instructions, %llu predicted "
                    "(%.1f%%)\n\n",
                    static_cast<unsigned long long>(retired),
                    static_cast<unsigned long long>(predicted),
                    100.0 * predicted / retired);
    } else {
        std::printf("%llu trace events\n\n",
                    static_cast<unsigned long long>(predicted));
    }

    sim::TextTable table;
    table.row().cell("predictor").cell("accuracy%");
    if (by_category) {
        for (const auto cat : exp::reportedCategories())
            table.cell(std::string(isa::categoryName(cat)));
    }
    table.cell("entries").rule();

    for (size_t i = 0; i < bank.size(); ++i) {
        const auto &member = bank.member(i);
        table.row().cell(member.predictor->name());
        table.cell(100.0 * member.stats.accuracy(), 1);
        if (by_category) {
            for (const auto cat : exp::reportedCategories())
                table.cell(100.0 * member.stats.accuracy(cat), 1);
        }
        table.cell(member.predictor->tableEntries());
    }
    std::printf("%s", table.render().c_str());
}

int
cmdList()
{
    std::printf("workloads:\n");
    for (const auto &info : workloads::allWorkloads())
        std::printf("  %-9s %s\n", info.name.c_str(),
                    info.description.c_str());
    // One source of truth for the grammar (exp/spec.hh).
    std::printf("\n%s", exp::specGrammarHelp());
    return 0;
}

int
cmdRun(const std::string &workload, const Options &options)
{
    sim::PredictorBank bank;
    exp::addSpecs(bank, options.predictors);

    const auto prog =
            workloads::findWorkload(workload).build(options.config);
    const auto outcome = sim::runProgram(prog, bank);
    std::printf("%s (input %s, flags %s, scale %d)\n",
                workload.c_str(), options.config.input.c_str(),
                options.config.flags.c_str(), options.config.scale);
    printReport(bank, outcome.vmResult.stats.retired,
                outcome.vmResult.stats.predicted, options.byCategory);
    return 0;
}

int
cmdRecord(const std::string &workload, const std::string &path,
          const Options &options)
{
    std::ofstream out(path, std::ios::binary);
    if (!out) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 1;
    }
    // VPT2: blocked and deflated; `analyze` streams it back.
    vm::Vpt2Writer writer(out);
    vm::Machine machine;
    machine.setSink(&writer);
    const auto prog =
            workloads::findWorkload(workload).build(options.config);
    const auto result = machine.run(prog);
    if (!result.ok()) {
        std::fprintf(stderr, "%s did not halt: %s\n", workload.c_str(),
                     result.diagnostic.c_str());
        return 1;
    }
    writer.finish();
    std::printf("recorded %llu events from %s to %s\n",
                static_cast<unsigned long long>(writer.eventCount()),
                workload.c_str(), path.c_str());
    return 0;
}

int
cmdAnalyze(const std::string &path, const Options &options)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "cannot open %s\n", path.c_str());
        return 1;
    }
    const auto reader = vm::openTrace(in);
    sim::PredictorBank bank;
    exp::addSpecs(bank, options.predictors);
    vm::ReaderBatchSource source(*reader);
    const auto n = sim::replayTrace(source, bank);
    reader->expectEnd();
    std::printf("%s:\n", path.c_str());
    printReport(bank, 0, n, options.byCategory);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];

    try {
        if (command == "list")
            return cmdList();
        if (command == "run" && argc >= 3) {
            Options options;
            if (!parseOptions(argc, argv, 3, options))
                return usage();
            return cmdRun(argv[2], options);
        }
        if (command == "record" && argc >= 4) {
            Options options;
            if (!parseOptions(argc, argv, 4, options))
                return usage();
            return cmdRecord(argv[2], argv[3], options);
        }
        if (command == "analyze" && argc >= 3) {
            Options options;
            if (!parseOptions(argc, argv, 3, options))
                return usage();
            return cmdAnalyze(argv[2], options);
        }
    } catch (const std::exception &err) {
        std::fprintf(stderr, "error: %s\n", err.what());
        return 1;
    }
    return usage();
}
