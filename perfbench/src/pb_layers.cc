/**
 * @file
 * pb_layers — the per-layer probe of the perfbench traced runs.
 *
 * Times calls into the public functions of the vm, trace, core and sim
 * layers over the seven workload traces at one scale, and prints the
 * per-layer ledger as one JSON object:
 *
 *   vm     WorkloadInfo::build + vm::Machine::run into a RecordingSink
 *   trace  vm::Vpt2Writer encode; openTrace + ReaderBatchSource decode
 *   core   one single-member bank per spec (the last one vpd's, given
 *          by --vpd-spec), streaming sim::replayTrace
 *   sim    building the widest confidence and aliasing banks (time,
 *          resident growth), the 72-member confidence bank replay, and
 *          the figure 8/9/10 trackers (on minus off, over `l` members)
 *
 * Usage: pb_layers --scale S --vpd-spec SPEC [--spans FILE]
 *   --vpd-spec SPEC  the bank spec the vpd server runs
 *   --spans FILE     write the probe's spans (one per timed call)
 */

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <sstream>

#include "common.hh"
#include "exp/capacity.hh"
#include "exp/experiment.hh"
#include "exp/suite.hh"
#include "sim/driver.hh"
#include "vm/trace_file.hh"

using namespace vp;
using namespace perfbench;

namespace {

/** Events of each trace the core and tracker replays take. */
constexpr size_t kCap = 100000;

/** The same for the 72-member confidence bank. */
constexpr size_t kWideCap = 5000;

/** The first @p cap events of every trace. */
std::vector<std::vector<vm::TraceEvent>>
prefixes(const std::vector<Trace> &traces, size_t cap)
{
    std::vector<std::vector<vm::TraceEvent>> out;
    for (const auto &trace : traces)
        out.emplace_back(trace.events.begin(),
                         trace.events.begin() +
                                 static_cast<std::ptrdiff_t>(std::min(
                                         cap, trace.events.size())));
    return out;
}

size_t
totalEvents(const std::vector<std::vector<vm::TraceEvent>> &streams)
{
    size_t n = 0;
    for (const auto &events : streams)
        n += events.size();
    return n;
}

/** How a bank is configured beyond its members (the tracker flags). */
struct Trackers
{
    int overlap = 0;
    size_t improvementA = 0, improvementB = 0;
    bool values = false;
};

std::unique_ptr<sim::PredictorBank>
makeBank(const std::vector<std::string> &specs, const Trackers &trackers)
{
    auto bank = std::make_unique<sim::PredictorBank>();
    for (const auto &spec : specs)
        bank->add(exp::makePredictor(spec));
    if (trackers.overlap > 0)
        bank->trackOverlap(trackers.overlap);
    if (trackers.improvementA != trackers.improvementB)
        bank->trackImprovement(trackers.improvementA,
                               trackers.improvementB);
    if (trackers.values)
        bank->trackValues();
    return bank;
}

/**
 * Replay every stream into a fresh bank per stream through the
 * streaming entry point; returns the replay time in ns (bank
 * construction excluded).
 */
int64_t
replayNs(const std::vector<std::string> &specs, const Trackers &trackers,
         const std::vector<std::vector<vm::TraceEvent>> &streams,
         const std::vector<Trace> &traces, const std::string &label,
         SpanLog &spans, int parent)
{
    int64_t ns = 0;
    const int group = spans.begin(label, 0, parent);
    for (size_t w = 0; w < streams.size(); ++w) {
        auto bank = makeBank(specs, trackers);
        vm::VectorBatchSource source(streams[w], 4096);
        const int s = spans.begin("replay " + traces[w].workload, w, group);
        const int64_t t0 = nowNs();
        sim::replayTrace(source, *bank);
        ns += nowNs() - t0;
        spans.end(s);
    }
    spans.end(group);
    return ns;
}

/** The widest bank of experiment @p name's declared grid. */
exp::SuiteOptions
widestCell(const std::string &name, bool dryRun)
{
    const auto *experiment = exp::registry().find(name);
    if (experiment == nullptr || !experiment->grid)
        throw std::runtime_error("experiment " + name + " has no grid");
    exp::ExperimentConfig config;
    config.dryRun = dryRun;
    exp::SuiteOptions widest;
    for (const auto &options : experiment->grid(config)) {
        if (options.predictors.size() > widest.predictors.size())
            widest = options;
    }
    return widest;
}

Trackers
trackersOf(const exp::SuiteOptions &options)
{
    return Trackers{options.overlap, options.improvementA,
                    options.improvementB, options.values};
}

double
perEvent(int64_t ns, size_t events)
{
    return events ? static_cast<double>(ns) / static_cast<double>(events)
                  : 0.0;
}

int
usage()
{
    std::fprintf(stderr, "usage: pb_layers --scale S --vpd-spec SPEC "
                         "[--spans FILE]\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    int scale = 100;
    std::string vpdSpec, spansPath;
    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char *name) {
            return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
        };
        if (arg("--scale")) {
            scale = std::atoi(argv[++i]);
        } else if (arg("--vpd-spec")) {
            vpdSpec = argv[++i];
        } else if (arg("--spans")) {
            spansPath = argv[++i];
        } else {
            return usage();
        }
    }
    if (scale <= 0 || vpdSpec.empty())
        return usage();

    try {
        SpanLog spans(!spansPath.empty(), 0);
        JsonObject json;

        // vm: build + execute each workload into a recording sink.
        std::vector<Trace> traces;
        const int vmSpan = spans.begin("vm", 0, -1);
        const int64_t vm0 = nowNs();
        for (const auto &info : workloads::allWorkloads()) {
            const int s = spans.begin("record " + info.name,
                                      traces.size(), vmSpan);
            traces.push_back(recordTrace(info, scale));
            spans.end(s);
        }
        const int64_t vmNs = nowNs() - vm0;
        spans.end(vmSpan);
        size_t events = 0;
        for (const auto &trace : traces)
            events += trace.events.size();
        json.num("vm.events", static_cast<double>(events))
                .num("vm.record_ns_per_event", perEvent(vmNs, events));

        // trace: VPT2 encode into memory, then stream-decode it back.
        const int traceSpan = spans.begin("trace", 0, -1);
        int64_t encodeNs = 0, decodeNs = 0;
        size_t bytes = 0, decoded = 0;
        for (size_t w = 0; w < traces.size(); ++w) {
            std::ostringstream encoded;
            const int e = spans.begin("encode " + traces[w].workload, w,
                                      traceSpan);
            int64_t t0 = nowNs();
            vm::Vpt2Writer writer(encoded);
            for (const auto &event : traces[w].events)
                writer.onValue(event);
            writer.finish();
            encodeNs += nowNs() - t0;
            spans.end(e);

            const std::string file = encoded.str();
            bytes += file.size();
            std::istringstream in(file);
            const int d = spans.begin("decode " + traces[w].workload, w,
                                      traceSpan);
            t0 = nowNs();
            auto cursor = vm::openTrace(in);
            vm::ReaderBatchSource source(*cursor);
            for (auto span = source.nextBatch(); !span.empty();
                 span = source.nextBatch())
                decoded += span.size();
            cursor->expectEnd();
            decodeNs += nowNs() - t0;
            spans.end(d);
        }
        spans.end(traceSpan);
        if (decoded != events)
            throw std::runtime_error("decoded event count differs");
        json.num("trace.encode_ns_per_event", perEvent(encodeNs, events))
                .num("trace.decode_ns_per_event", perEvent(decodeNs, events))
                .num("trace.bytes_per_event",
                     static_cast<double>(bytes) /
                             static_cast<double>(std::max<size_t>(events, 1)));

        // core: per-family single-member replay.
        const auto streams = prefixes(traces, kCap);
        const size_t streamEvents = totalEvents(streams);
        const int coreSpan = spans.begin("core", 0, -1);
        const std::vector<std::pair<std::string, std::string>> families = {
                {"l", "l"},
                {"s2", "s2"},
                {"fcm1", "fcm1"},
                {"fcm2", "fcm2"},
                {"fcm3", "fcm3"},
                {"hybrid", "hybrid"},
                {"l_1M", exp::boundedSpecFor("l", size_t{1} << 20)},
                {"s2_1M", exp::boundedSpecFor("s2", size_t{1} << 20)},
                {"fcm3_1M", exp::boundedSpecFor("fcm3", size_t{1} << 20)},
                {"fcm3_vpd", vpdSpec},
        };
        for (const auto &[name, spec] : families) {
            const int64_t ns = replayNs({spec}, {}, streams, traces,
                                        "core." + name, spans, coreSpan);
            json.num("core." + name + ".ns_per_event",
                     perEvent(ns, streamEvents));
        }
        spans.end(coreSpan);

        // sim: wide-bank construction, wide replay, tracker cost.
        const int simSpan = spans.begin("sim", 0, -1);
        const auto confidence = widestCell("confidence", true);
        const auto aliasing = widestCell("aliasing", true);
        double buildMs = 0.0, rssMb = 0.0;
        for (const auto *cell : {&confidence, &aliasing}) {
            const double rss0 = statusMb("VmRSS");
            const int s = spans.begin("bank_build", cell->predictors.size(),
                                      simSpan);
            const int64_t t0 = nowNs();
            auto bank = makeBank(cell->predictors, {});
            buildMs += static_cast<double>(nowNs() - t0) / 1e6;
            spans.end(s);
            rssMb += statusMb("VmRSS") - rss0;
        }
        const auto wideStreams = prefixes(traces, kWideCap);
        const int64_t wideNs =
                replayNs(confidence.predictors, {}, wideStreams, traces,
                         "wide_bank", spans, simSpan);
        // The figure banks' trackers over cheap `l` members, so the
        // on-minus-off difference is the trackers' own cost rather
        // than noise in the unbounded members' replay.
        int64_t trackersNs = 0;
        for (const char *figure : {"figure8", "figure9", "figure10"}) {
            const auto cell = widestCell(figure, false);
            const std::vector<std::string> members(cell.predictors.size(),
                                                   "l");
            trackersNs += replayNs(members, trackersOf(cell), streams,
                                   traces,
                                   std::string("trackers_on ") + figure,
                                   spans, simSpan);
            trackersNs -= replayNs(members, {}, streams, traces,
                                   std::string("trackers_off ") + figure,
                                   spans, simSpan);
        }
        spans.end(simSpan);
        json.num("sim.bank_build_ms", buildMs)
                .num("sim.bank_rss_mb", rssMb)
                .num("sim.wide_bank.ns_per_member_event",
                     perEvent(wideNs, totalEvents(wideStreams) *
                                              confidence.predictors.size()))
                .num("sim.wide_bank.members",
                     static_cast<double>(confidence.predictors.size()))
                .num("sim.trackers.ns_per_event",
                     perEvent(trackersNs, streamEvents));

        if (!spansPath.empty() && !writeSpans(spansPath, {&spans}))
            throw std::runtime_error("cannot write " + spansPath);
        std::cout << json.render() << std::endl;
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "pb_layers: %s\n", error.what());
        return 1;
    }
}
