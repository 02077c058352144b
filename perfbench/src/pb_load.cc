/**
 * @file
 * pb_load — the closed-loop vpd load client of the perfbench serve
 * workloads.
 *
 * Records the seven workload traces, then drives a running `vpd` from
 * N client threads. A client holds one tenant per trace and replays
 * passes over the traces; each pass of a tenant (one simulator run)
 * streams over a connection of its own, and each client waits on every
 * reply before sending the next frame. The tenant set stays fixed, so
 * the server's memory does not grow with the number of passes.
 *
 *   batch mode   BATCH frames of ~512 events (seeded jitter), the
 *                bank-bound serve_batch traffic
 *   event mode   per event one PREDICT then one TRAIN frame, the
 *                per-frame-bound serve_event traffic
 *
 * The seed permutes each client's workload order per pass, picks the
 * tenant ids (and with them the lock stripes) and jitters the batch
 * sizes. After the timed window every tenant's TENANT_STATS must equal
 * a local net::ShardedBankMap built from --reference-spec (the server's
 * spec) and fed the same call sequence, pass after pass; mismatching
 * tenants and ERROR frames are counted as failures.
 *
 * Usage: pb_load --port P --mode batch|event --scale S --clients N
 *                --seconds T --seed X --reference-spec SPEC
 *                [--spans FILE] [--layers]
 *
 * --layers adds the in-process net layer ledger (codec and bank-apply
 * cost on the same frames); --spans writes sampled per-frame spans.
 * Prints one JSON object on stdout; exit 0 unless the run could not
 * be carried out (failures are reported, not fatal).
 */

#include <algorithm>
#include <atomic>
#include <cstdlib>
#include <cstring>
#include <iostream>
#include <latch>
#include <map>
#include <numeric>
#include <optional>
#include <sstream>
#include <thread>

#include "common.hh"
#include "net/client.hh"
#include "net/protocol.hh"
#include "net/sharded_bank.hh"

using namespace vp;
using namespace perfbench;

namespace {

struct Options
{
    uint16_t port = 0;
    bool eventMode = false;
    int scale = 100;
    unsigned clients = 1;
    double seconds = 10.0;
    uint64_t seed = 1;
    /** The server's bank spec, which the local reference must use. */
    std::string referenceSpec;
    std::string spansPath;
    bool layers = false;
};

/** Mean events per BATCH frame; the seed jitters each by +-25%. */
constexpr size_t kBatch = 512;

/** Throughput is sampled per window of this length. */
constexpr int64_t kWindowNs = 500'000'000;

/** One tenant: which trace, and its graded events over all passes. */
struct TenantRun
{
    uint64_t tenant = 0;
    size_t workload = 0;
    uint64_t events = 0;
};

/** One pass of a tenant: graded events, connect to last reply. */
struct Stream
{
    size_t workload = 0;
    uint64_t events = 0;
    int64_t ns = 0;
};

struct ClientResult
{
    explicit ClientResult(bool traced, unsigned lane) : spans(traced, lane)
    {
    }

    std::vector<double> rttUs;
    std::vector<uint32_t> rttWindow;      ///< window of each rttUs sample
    std::vector<uint64_t> windowEvents;   ///< graded events per window
    std::vector<TenantRun> tenants;       ///< one per trace
    std::vector<Stream> streams;
    uint64_t events = 0;
    uint64_t frames = 0;
    uint64_t errorFrames = 0;
    int64_t endNs = 0;
    std::string failure;
    SpanLog spans;
};

/** The seeded call plan: per workload, its BATCH frame sizes. */
std::vector<std::vector<uint32_t>>
framePlan(const std::vector<Trace> &traces, const Options &options)
{
    std::vector<std::vector<uint32_t>> plan(traces.size());
    const uint64_t jitter = kBatch / 4;
    for (size_t w = 0; w < traces.size(); ++w) {
        uint64_t state = derive(options.seed, 0xba7c4, w);
        size_t left = traces[w].events.size();
        while (left > 0) {
            const size_t n = std::min<size_t>(
                    kBatch - jitter + splitmix(state) % (2 * jitter + 1),
                    left);
            plan[w].push_back(static_cast<uint32_t>(n));
            left -= n;
        }
    }
    return plan;
}

/** The workload order of one (client, pass): a seeded shuffle. */
std::vector<size_t>
passOrder(size_t workloads, uint64_t seed, unsigned client, uint64_t pass)
{
    std::vector<size_t> order(workloads);
    std::iota(order.begin(), order.end(), size_t{0});
    uint64_t state = derive(seed, 0x0de7, client, pass);
    for (size_t i = workloads; i > 1; --i)
        std::swap(order[i - 1], order[splitmix(state) % i]);
    return order;
}

/** Send one request frame and read its reply; returns the RTT. */
int64_t
roundTrip(net::VpdClient &client, const std::vector<uint8_t> &request,
          net::Op expect, std::vector<uint8_t> &reply, int64_t &t1)
{
    const int64_t t0 = nowNs();
    client.sendRaw(request.data(), request.size());
    auto frame = client.readFrame();
    t1 = nowNs();
    if (!frame.has_value())
        throw std::runtime_error("server closed the connection");
    if (frame->op != expect) {
        if (frame->op == net::Op::Error) {
            const auto error = net::decodeErrorReply(frame->payload);
            throw net::ProtocolError(net::ProtoError::Remote,
                                     "ERROR frame: " + error.message);
        }
        throw std::runtime_error("unexpected reply opcode");
    }
    reply = std::move(frame->payload);
    return t1 - t0;
}

/**
 * One client's closed loop until @p deadlineNs. Frame spans are
 * sampled (every @p spanStride-th frame) so a long traced run keeps a
 * bounded span log.
 */
void
runClient(unsigned c, const Options &options,
          const std::vector<Trace> &traces,
          const std::vector<std::vector<uint32_t>> &plan,
          std::latch &ready, const std::atomic<int64_t> &deadlineNs,
          ClientResult &out)
{
    const uint64_t spanStride = options.eventMode ? 256 : 32;
    std::vector<uint8_t> request, reply;
    for (size_t w = 0; w < traces.size(); ++w)
        out.tenants.push_back(
                {derive(options.seed,
                        options.eventMode ? 0x7e4a47e : 0x7e4a47b, c, w),
                 w, 0});
    bool started = false;
    try {
        // A probe connection before the clock starts; each pass of a
        // tenant then streams over a connection of its own, so a run
        // samples many server-thread placements.
        net::VpdClient::connectTcp(options.port).close();
        ready.arrive_and_wait();
        started = true;
        const int64_t deadline = deadlineNs.load();
        const int64_t start = deadline - static_cast<int64_t>(
                                                 options.seconds * 1e9);
        bool stop = false;
        for (uint64_t pass = 0; !stop; ++pass) {
            const int passSpan = out.spans.begin("pass", pass, -1);
            for (const size_t w : passOrder(traces.size(), options.seed, c,
                                            pass)) {
                const auto &events = traces[w].events;
                TenantRun &run = out.tenants[w];
                const int tenantSpan = out.spans.begin(
                        "tenant " + traces[w].workload, run.tenant,
                        passSpan);
                const int64_t streamStart = nowNs();
                uint64_t streamed = 0;
                auto client = net::VpdClient::connectTcp(options.port);
                // One frame: encode, round trip, sampled spans.
                const auto frame = [&](auto &&encode, net::Op expect,
                                       uint64_t graded) {
                    const bool sampled = out.spans.enabled() &&
                                         out.frames % spanStride == 0;
                    const int64_t e0 = sampled ? nowNs() : 0;
                    request.clear();
                    encode();
                    const int64_t e1 = sampled ? nowNs() : 0;
                    int64_t t1 = 0;
                    const int64_t rtt =
                            roundTrip(client, request, expect, reply, t1);
                    const auto window = static_cast<size_t>(
                            (t1 - start) / kWindowNs);
                    out.rttUs.push_back(static_cast<double>(rtt) / 1e3);
                    out.rttWindow.push_back(static_cast<uint32_t>(window));
                    if (sampled) {
                        const uint64_t id = out.frames;
                        const int f = out.spans.add("frame", id, tenantSpan,
                                                    e0, nowNs());
                        out.spans.add("encode", id, f, e0, e1);
                        out.spans.add("rtt", id, f, t1 - rtt, t1);
                    }
                    ++out.frames;
                    out.events += graded;
                    if (window >= out.windowEvents.size())
                        out.windowEvents.resize(window + 1, 0);
                    out.windowEvents[window] += graded;
                    if (t1 >= deadline)
                        stop = true;
                };
                if (!options.eventMode) {
                    size_t at = 0;
                    for (const uint32_t n : plan[w]) {
                        const vm::TraceSpan span(events.data() + at, n);
                        frame([&] { net::encodeBatch(request, run.tenant,
                                                     span); },
                              net::Op::RBatch, n);
                        if (net::decodeBatchReply(reply).count != n)
                            throw std::runtime_error("short BATCH reply");
                        at += n;
                        streamed = at;
                        if (stop)
                            break;
                    }
                } else {
                    for (const auto &event : events) {
                        frame([&] { net::encodePredict(request, run.tenant,
                                                       event.pc); },
                              net::Op::RPredict, 0);
                        net::decodePredictReply(reply);
                        frame([&] { net::encodeTrain(request, run.tenant,
                                                     event); },
                              net::Op::RTrain, 1);
                        net::decodeTrainReply(reply);
                        ++streamed;
                        if (stop)
                            break;
                    }
                }
                run.events += streamed;
                out.streams.push_back({w, streamed, nowNs() - streamStart});
                out.spans.end(tenantSpan);
                if (stop)
                    break;
            }
            out.spans.end(passSpan);
        }
    } catch (const net::ProtocolError &error) {
        ++out.errorFrames;
        out.failure = error.what();
    } catch (const std::exception &error) {
        out.failure = error.what();
    }
    if (!started)
        ready.arrive_and_wait();
    out.endNs = nowNs();
}

/** The local references for the tenants of each workload. */
class References
{
  public:
    References(const Options &options, const std::vector<Trace> &traces,
               const std::vector<std::vector<uint32_t>> &plan)
        : options_(options), traces_(traces), plan_(plan)
    {
    }

    /**
     * Feed a fresh ShardedBankMap the call sequence a tenant of workload
     * @p w sends, pass after pass, and snapshot its stats after each of
     * @p totals graded events. A total that falls inside a frame gets
     * no snapshot.
     */
    std::map<uint64_t, net::TenantStats>
    replay(size_t w, std::vector<uint64_t> totals) const
    {
        std::sort(totals.begin(), totals.end());
        net::ShardedBankConfig config;
        config.spec = options_.referenceSpec;
        net::ShardedBankMap local(config);
        const auto &trace = traces_[w].events;
        const uint64_t tenant = 1;
        std::map<uint64_t, net::TenantStats> out;
        uint64_t at = 0;
        size_t next = 0;
        // Snapshots every total reached so far; true once all are.
        const auto reached = [&] {
            for (; next < totals.size() && totals[next] <= at; ++next) {
                if (totals[next] != at)
                    continue;
                const auto stats = local.tenantStats(tenant);
                out.try_emplace(at, stats ? net::TenantStats::from(*stats)
                                          : net::TenantStats{});
            }
            return next == totals.size();
        };
        while (!reached()) {
            if (!options_.eventMode) {
                size_t offset = 0;
                for (const uint32_t n : plan_[w]) {
                    local.applyBatch(tenant,
                                     vm::TraceSpan(trace.data() + offset, n));
                    offset += n;
                    at += n;
                    if (reached())
                        break;
                }
            } else {
                for (const auto &event : trace) {
                    local.predict(tenant, event.pc);
                    local.applyOne(tenant, event);
                    ++at;
                    if (reached())
                        break;
                }
            }
        }
        return out;
    }

    /** replay() for every workload, on up to nproc threads. */
    std::vector<std::map<uint64_t, net::TenantStats>>
    replayAll(const std::vector<std::vector<uint64_t>> &totals) const
    {
        std::vector<std::map<uint64_t, net::TenantStats>> out(totals.size());
        std::atomic<size_t> next{0};
        const auto worker = [&] {
            for (size_t w; (w = next++) < totals.size();)
                out[w] = replay(w, totals[w]);
        };
        const size_t threads = std::min<size_t>(
                std::max(1u, std::thread::hardware_concurrency()),
                totals.size());
        std::vector<std::thread> helpers;
        for (size_t i = 1; i < threads; ++i)
            helpers.emplace_back(worker);
        worker();
        for (auto &helper : helpers)
            helper.join();
        return out;
    }

  private:
    const Options &options_;
    const std::vector<Trace> &traces_;
    const std::vector<std::vector<uint32_t>> &plan_;
};

/**
 * In-process net layer costs on the workload's own frames: the client
 * encode + server FrameDecoder/decode + reply encode/decode round of
 * every frame (no sockets), and the bank apply per graded event.
 */
struct LayerCosts
{
    double codecNsPerFrame = 0.0;
    double applyNsPerEvent = 0.0;
    double eventsPerFrame = 0.0;
};

LayerCosts
measureLayers(const Options &options, const std::vector<Trace> &traces,
              const std::vector<std::vector<uint32_t>> &plan,
              const References &references, SpanLog &spans)
{
    LayerCosts costs;
    std::vector<uint8_t> request, reply;
    std::vector<vm::TraceEvent> decoded;
    net::FrameDecoder serverSide, clientSide;
    uint64_t frames = 0, events = 0;
    int64_t codecNs = 0;

    const auto codec = [&](auto &&encodeRequest, auto &&serve,
                           auto &&decodeReply) {
        const int64_t t0 = nowNs();
        request.clear();
        encodeRequest();
        serverSide.feed(request.data(), request.size());
        const auto in = serverSide.next();
        reply.clear();
        serve(in->payload);
        clientSide.feed(reply.data(), reply.size());
        const auto back = clientSide.next();
        decodeReply(back->payload);
        codecNs += nowNs() - t0;
        ++frames;
    };

    const int codecSpan = spans.begin("net.codec", 0, -1);
    for (size_t w = 0; w < traces.size(); ++w) {
        const auto &trace = traces[w].events;
        if (!options.eventMode) {
            size_t at = 0;
            for (const uint32_t n : plan[w]) {
                const vm::TraceSpan span(trace.data() + at, n);
                codec([&] { net::encodeBatch(request, 7, span); },
                      [&](std::span<const uint8_t> payload) {
                          net::decodeBatch(payload, decoded);
                          net::encodeBatchReply(reply, n, 0, 0);
                      },
                      [&](std::span<const uint8_t> payload) {
                          net::decodeBatchReply(payload);
                      });
                at += n;
                events += n;
            }
        } else {
            for (const auto &event : trace) {
                codec([&] { net::encodePredict(request, 7, event.pc); },
                      [&](std::span<const uint8_t> payload) {
                          net::decodePredict(payload);
                          net::encodePredictReply(reply, true, event.value);
                      },
                      [&](std::span<const uint8_t> payload) {
                          net::decodePredictReply(payload);
                      });
                codec([&] { net::encodeTrain(request, 7, event); },
                      [&](std::span<const uint8_t> payload) {
                          net::decodeTrain(payload);
                          net::encodeTrainReply(reply, true, true);
                      },
                      [&](std::span<const uint8_t> payload) {
                          net::decodeTrainReply(payload);
                      });
                ++events;
            }
        }
    }
    spans.end(codecSpan);
    costs.codecNsPerFrame =
            frames ? static_cast<double>(codecNs) / static_cast<double>(frames)
                   : 0.0;
    costs.eventsPerFrame =
            frames ? static_cast<double>(events) / static_cast<double>(frames)
                   : 0.0;

    const int applySpan = spans.begin("net.bank_apply", 0, -1);
    int64_t applyNs = 0;
    uint64_t applied = 0;
    for (size_t w = 0; w < traces.size(); ++w) {
        const int s = spans.begin("apply " + traces[w].workload, w,
                                  applySpan);
        const int64_t t0 = nowNs();
        references.replay(w, {traces[w].events.size()});
        applyNs += nowNs() - t0;
        applied += traces[w].events.size();
        spans.end(s);
    }
    spans.end(applySpan);
    costs.applyNsPerEvent = applied ? static_cast<double>(applyNs) /
                                              static_cast<double>(applied)
                                    : 0.0;
    return costs;
}

/** Nearest-rank percentile of a sorted sample. */
double
percentile(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const size_t rank = static_cast<size_t>(
            p / 100.0 * static_cast<double>(sorted.size() - 1) + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
}

double
median(std::vector<double> values)
{
    std::sort(values.begin(), values.end());
    return percentile(values, 50.0);
}

/** p99 when at least ten samples lie beyond it, otherwise the highest
 *  percentile that has ten beyond it. */
double
tailPercentile(size_t samples)
{
    if (samples > 11 && static_cast<double>(samples) * 0.01 < 10.0)
        return 100.0 * static_cast<double>(samples - 11) /
               static_cast<double>(samples - 1);
    return 99.0;
}

/** Round-trip percentiles. */
struct RttSummary
{
    double p50Us = 0.0;
    double tailUs = 0.0;
    double tailPct = 99.0;
    size_t windows = 0;     ///< whole windows summarised (0 = pooled)
};

/**
 * The median over whole windows of each window's p50 and tail, which
 * resists stalls a shared host injects into single windows; pooled
 * over the run when no window has enough samples.
 */
RttSummary
summariseRtt(const std::vector<double> &rttUs,
             const std::vector<uint32_t> &rttWindow, size_t wholeWindows)
{
    std::vector<std::vector<double>> perWindow(wholeWindows);
    for (size_t i = 0; i < rttUs.size(); ++i) {
        if (rttWindow[i] < wholeWindows)
            perWindow[rttWindow[i]].push_back(rttUs[i]);
    }
    RttSummary summary;
    std::vector<double> p50s, tails;
    for (auto &samples : perWindow) {
        if (samples.size() < 1000)
            continue;
        std::sort(samples.begin(), samples.end());
        p50s.push_back(percentile(samples, 50.0));
        tails.push_back(percentile(samples, 99.0));
    }
    if (!p50s.empty()) {
        summary.p50Us = median(p50s);
        summary.tailUs = median(tails);
        summary.windows = p50s.size();
        return summary;
    }
    std::vector<double> pooled = rttUs;
    std::sort(pooled.begin(), pooled.end());
    summary.tailPct = tailPercentile(pooled.size());
    summary.p50Us = percentile(pooled, 50.0);
    summary.tailUs = percentile(pooled, summary.tailPct);
    return summary;
}

/** The STATS reply's `name value` lines as a JSON object. */
std::string
statsJson(const std::string &text)
{
    std::istringstream in(text);
    std::string name, value, json;
    while (in >> name >> value) {
        json += json.empty() ? "" : ", ";
        json += "\"" + name + "\": " + value;
    }
    return "{" + json + "}";
}

int
usage()
{
    std::fprintf(stderr,
                 "usage: pb_load --port P --mode batch|event --scale S "
                 "--clients N --seconds T --seed X\n"
                 "               --reference-spec SPEC [--spans FILE] "
                 "[--layers]\n");
    return 2;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    Options options;
    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char *name) {
            return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
        };
        if (arg("--port")) {
            options.port = static_cast<uint16_t>(std::atoi(argv[++i]));
        } else if (arg("--mode")) {
            const std::string mode = argv[++i];
            if (mode != "batch" && mode != "event")
                return usage();
            options.eventMode = mode == "event";
        } else if (arg("--scale")) {
            options.scale = std::atoi(argv[++i]);
        } else if (arg("--clients")) {
            options.clients = static_cast<unsigned>(std::atoi(argv[++i]));
        } else if (arg("--seconds")) {
            options.seconds = std::atof(argv[++i]);
        } else if (arg("--seed")) {
            options.seed = std::strtoull(argv[++i], nullptr, 10);
        } else if (arg("--reference-spec")) {
            options.referenceSpec = argv[++i];
        } else if (arg("--spans")) {
            options.spansPath = argv[++i];
        } else if (std::strcmp(argv[i], "--layers") == 0) {
            options.layers = true;
        } else {
            return usage();
        }
    }
    if (options.port == 0 || options.clients == 0 || options.scale <= 0 ||
        options.seconds <= 0 || options.referenceSpec.empty())
        return usage();

    try {
        std::vector<Trace> traces;
        for (const auto &info : workloads::allWorkloads())
            traces.push_back(recordTrace(info, options.scale));
        const auto plan = framePlan(traces, options);

        const bool traced = !options.spansPath.empty();
        std::vector<ClientResult> results;
        results.reserve(options.clients);
        for (unsigned c = 0; c < options.clients; ++c)
            results.emplace_back(traced, c);

        std::latch ready(static_cast<std::ptrdiff_t>(options.clients) + 1);
        std::atomic<int64_t> deadline{0};
        std::vector<std::thread> threads;
        for (unsigned c = 0; c < options.clients; ++c)
            threads.emplace_back(runClient, c, std::cref(options),
                                 std::cref(traces), std::cref(plan),
                                 std::ref(ready), std::cref(deadline),
                                 std::ref(results[c]));
        // Every client is connected before the clock starts.
        const int64_t start = nowNs();
        deadline.store(start +
                       static_cast<int64_t>(options.seconds * 1e9));
        ready.arrive_and_wait();
        for (auto &thread : threads)
            thread.join();

        std::vector<double> rtt;
        std::vector<uint32_t> rttWindow;
        std::vector<uint64_t> windows;
        uint64_t events = 0, frames = 0, errorFrames = 0;
        int64_t end = start;
        std::string failure;
        for (const auto &r : results) {
            rtt.insert(rtt.end(), r.rttUs.begin(), r.rttUs.end());
            rttWindow.insert(rttWindow.end(), r.rttWindow.begin(),
                             r.rttWindow.end());
            if (r.windowEvents.size() > windows.size())
                windows.resize(r.windowEvents.size(), 0);
            for (size_t i = 0; i < r.windowEvents.size(); ++i)
                windows[i] += r.windowEvents[i];
            events += r.events;
            frames += r.frames;
            errorFrames += r.errorFrames;
            end = std::max(end, r.endNs);
            if (!r.failure.empty())
                failure = r.failure;
        }
        const double loadS = static_cast<double>(end - start) / 1e9;
        const double rttMean =
                rtt.empty() ? 0.0
                            : std::accumulate(rtt.begin(), rtt.end(), 0.0) /
                                      static_cast<double>(rtt.size());
        const size_t wholeWindows = windows.empty() ? 0 : windows.size() - 1;
        const RttSummary summary = summariseRtt(rtt, rttWindow, wholeWindows);

        // Correctness: every tenant against its local reference.
        const References references(options, traces, plan);
        std::vector<std::vector<uint64_t>> totals(traces.size());
        for (const auto &r : results) {
            for (const auto &run : r.tenants) {
                if (run.events > 0)
                    totals[run.workload].push_back(run.events);
            }
        }
        const auto expected = references.replayAll(totals);
        auto checker = net::VpdClient::connectTcp(options.port);
        const std::string stats = checker.stats();
        uint64_t checked = 0, mismatched = 0;
        for (const auto &r : results) {
            for (const auto &run : r.tenants) {
                if (run.events == 0)
                    continue;
                ++checked;
                const auto served = checker.tenantStats(run.tenant);
                const auto &want = expected[run.workload];
                const auto it = want.find(run.events);
                if (!served.has_value() || it == want.end() ||
                    !(*served == it->second)) {
                    ++mismatched;
                    std::fprintf(stderr,
                                 "pb_load: tenant %llu (%s, %llu events) "
                                 "differs from its local reference\n",
                                 static_cast<unsigned long long>(run.tenant),
                                 traces[run.workload].workload.c_str(),
                                 static_cast<unsigned long long>(
                                         run.events));
                }
            }
        }

        // One simulator's run over the whole trace set: per workload,
        // the median stream time per event (connect to last reply) times
        // the trace length. A workload no client reached uses the median
        // over all streams.
        std::vector<std::vector<double>> nsPerEvent(traces.size());
        std::vector<double> anyNsPerEvent;
        size_t streams = 0;
        for (const auto &r : results) {
            for (const auto &stream : r.streams) {
                if (stream.events == 0)
                    continue;
                const double perEvent = static_cast<double>(stream.ns) /
                                        static_cast<double>(stream.events);
                nsPerEvent[stream.workload].push_back(perEvent);
                anyNsPerEvent.push_back(perEvent);
                ++streams;
            }
        }
        double passS = 0.0;
        for (size_t w = 0; w < traces.size(); ++w) {
            const auto &sample =
                    nsPerEvent[w].empty() ? anyNsPerEvent : nsPerEvent[w];
            passS += median(sample) *
                     static_cast<double>(traces[w].events.size()) / 1e9;
        }

        // Whole windows only: the last one is cut by the deadline.
        std::string windowRates;
        for (size_t i = 0; i + 1 < windows.size(); ++i) {
            char buf[32];
            std::snprintf(buf, sizeof(buf), "%s%.1f", i ? ", " : "",
                          static_cast<double>(windows[i]) * 1e9 /
                                  static_cast<double>(kWindowNs));
            windowRates += buf;
        }

        JsonObject json;
        json.num("clients", options.clients)
                .raw("window_rates", "[" + windowRates + "]")
                .num("tenants", static_cast<double>(checked))
                .num("events", static_cast<double>(events))
                .num("frames", static_cast<double>(frames))
                .num("load_s", loadS)
                .num("pass_s", passS)
                .num("streams", static_cast<double>(streams))
                .num("rtt_p50_us", summary.p50Us)
                .num("rtt_tail_us", summary.tailUs)
                .num("rtt_tail_pct", summary.tailPct)
                .num("rtt_windows", static_cast<double>(summary.windows))
                .num("rtt_mean_us", rttMean)
                .num("rtt_samples", static_cast<double>(rtt.size()))
                .num("error_frames", static_cast<double>(errorFrames))
                .num("mismatched_tenants", static_cast<double>(mismatched))
                .str("failure", failure)
                .raw("stats", statsJson(stats));

        SpanLog layerSpans(traced, options.clients);
        if (options.layers) {
            const auto costs = measureLayers(options, traces, plan,
                                             references, layerSpans);
            const double applyPerFrameNs =
                    options.eventMode
                            ? costs.applyNsPerEvent / 2.0
                            : costs.applyNsPerEvent * costs.eventsPerFrame;
            json.num("codec_ns_per_frame", costs.codecNsPerFrame)
                    .num("bank_apply_ns_per_event", costs.applyNsPerEvent)
                    .num("transport_us_per_frame",
                         rttMean - (costs.codecNsPerFrame +
                                    applyPerFrameNs) /
                                           1e3);
        }
        if (traced) {
            std::vector<const SpanLog *> logs;
            for (const auto &r : results)
                logs.push_back(&r.spans);
            logs.push_back(&layerSpans);
            if (!writeSpans(options.spansPath, logs))
                throw std::runtime_error("cannot write " +
                                         options.spansPath);
        }
        std::cout << json.render() << std::endl;
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "pb_load: %s\n", error.what());
        return 1;
    }
}
