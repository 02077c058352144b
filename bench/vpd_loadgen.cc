/**
 * @file
 * vpd load generator — the headline bench of the network subsystem.
 *
 * Records the seven workload traces once, then replays them against an
 * in-process VpdServer as N concurrent loopback clients: every
 * (client, workload) pair is its own tenant, so each tenant's stream
 * is one complete workload trace delivered in order via BATCH frames.
 * That makes the correctness bar exact: after the run, every tenant's
 * server-side statistics must be byte-identical to a serial
 * single-bank replay of the same trace (exit 1 on any mismatch).
 *
 * Reports predictions/sec and per-frame RTT percentiles (p50/p99/p999)
 * per engine x client-count cell as JSON (a context block with date,
 * scale and hardware_concurrency, then rows). The committed repo-root
 * BENCH_vpd.json is a snapshot of this program's output.
 *
 * Usage: vpd_loadgen [--scale N] [--clients LIST] [--batch N]
 *                    [--spec S] [--engine thread|epoll|both]
 *                    [--out FILE]
 *   --scale N      workload scale percent (default 5, the smoke scale)
 *   --clients L    comma list of client counts (default "1,4")
 *   --batch N      events per BATCH frame (default 512)
 *   --spec S       predictor spec per bank (default fcm3@1024/4096x4)
 *   --engine E     which server engine(s) to bench (default both)
 *   --out FILE     write JSON there instead of BENCH_vpd.json
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <ctime>
#include <fstream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "exp/suite.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "sim/driver.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

using namespace vp;
using Clock = std::chrono::steady_clock;

namespace {

struct Trace
{
    std::string workload;
    std::vector<vm::TraceEvent> events;
    net::TenantStats reference;     ///< serial single-bank replay
};

/** Record one workload and compute its serial-replay reference. */
Trace
recordTrace(const workloads::WorkloadInfo &info,
            const workloads::WorkloadConfig &config,
            const std::string &spec)
{
    Trace trace;
    trace.workload = info.name;

    vm::RecordingSink recording;
    vm::Machine machine;
    machine.setSink(&recording);
    machine.run(info.build(config));
    trace.events = std::move(recording.events);

    sim::PredictorBank bank;
    bank.add(exp::makePredictor(spec));
    sim::replayTrace(trace.events, bank);
    trace.reference = net::TenantStats::from(bank.member(0).stats);
    return trace;
}

double
percentileUs(const std::vector<double> &sorted, double p)
{
    if (sorted.empty())
        return 0.0;
    const size_t rank = static_cast<size_t>(
            p * static_cast<double>(sorted.size() - 1) / 100.0 + 0.5);
    return sorted[std::min(rank, sorted.size() - 1)];
}

struct CellResult
{
    std::string engine;
    unsigned clients = 0;
    size_t tenants = 0;
    uint64_t events = 0;
    uint64_t frames = 0;
    double wallMs = 0.0;
    double predictionsPerSec = 0.0;
    double p50Us = 0.0, p99Us = 0.0, p999Us = 0.0;
    bool identical = false;
};

/**
 * One bench cell: a fresh server, @p clients worker threads each
 * replaying every trace as its own tenant, then the per-tenant
 * identity check against the serial references.
 */
CellResult
runCell(const std::vector<Trace> &traces, const std::string &spec,
        net::Engine engine, unsigned clients, size_t batch)
{
    net::VpdServerConfig config;
    config.banks.spec = spec;
    config.engine = engine;
    net::VpdServer server(config);
    server.start();

    std::vector<std::vector<double>> rttUs(clients);
    std::vector<std::thread> workers;
    std::mutex failMutex;
    std::string failure;

    const auto start = Clock::now();
    for (unsigned c = 0; c < clients; ++c) {
        workers.emplace_back([&, c] {
            try {
                auto client = net::VpdClient::connectTcp(server.port());
                auto &samples = rttUs[c];
                for (size_t w = 0; w < traces.size(); ++w) {
                    const uint64_t tenant = c * traces.size() + w;
                    const auto &events = traces[w].events;
                    for (size_t i = 0; i < events.size(); i += batch) {
                        const size_t n =
                                std::min(batch, events.size() - i);
                        const auto t0 = Clock::now();
                        const auto reply = client.batch(
                                tenant,
                                vm::TraceSpan(events.data() + i, n));
                        samples.push_back(
                                std::chrono::duration<double,
                                                      std::micro>(
                                        Clock::now() - t0)
                                        .count());
                        if (reply.count != n)
                            throw std::runtime_error(
                                    "short batch reply");
                    }
                }
            } catch (const std::exception &error) {
                const std::lock_guard<std::mutex> lock(failMutex);
                failure = error.what();
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
    const double wallMs =
            std::chrono::duration<double, std::milli>(Clock::now() -
                                                      start)
                    .count();

    if (!failure.empty()) {
        server.stop();
        std::fprintf(stderr, "loadgen worker failed: %s\n",
                     failure.c_str());
        std::exit(1);
    }

    CellResult cell;
    cell.engine = net::engineName(engine);
    cell.clients = clients;
    cell.tenants = clients * traces.size();
    cell.wallMs = wallMs;

    std::vector<double> merged;
    for (const auto &samples : rttUs)
        merged.insert(merged.end(), samples.begin(), samples.end());
    std::sort(merged.begin(), merged.end());
    cell.frames = merged.size();
    cell.p50Us = percentileUs(merged, 50.0);
    cell.p99Us = percentileUs(merged, 99.0);
    cell.p999Us = percentileUs(merged, 99.9);

    for (const auto &trace : traces)
        cell.events += trace.events.size() * clients;
    cell.predictionsPerSec =
            static_cast<double>(cell.events) / (wallMs / 1e3);

    // Identity: every tenant's server-side statistics must equal the
    // serial single-bank replay of the same workload trace.
    cell.identical = true;
    auto checker = net::VpdClient::connectTcp(server.port());
    for (unsigned c = 0; c < clients && cell.identical; ++c) {
        for (size_t w = 0; w < traces.size(); ++w) {
            const uint64_t tenant = c * traces.size() + w;
            const auto stats = checker.tenantStats(tenant);
            if (!stats.has_value() ||
                !(*stats == traces[w].reference)) {
                std::fprintf(stderr,
                             "IDENTITY MISMATCH: engine=%s clients=%u "
                             "tenant=%llu workload=%s\n",
                             cell.engine.c_str(), clients,
                             static_cast<unsigned long long>(tenant),
                             traces[w].workload.c_str());
                cell.identical = false;
                break;
            }
        }
    }
    server.stop();
    return cell;
}

} // namespace

int
main(int argc, char **argv)
{
    workloads::WorkloadConfig config;
    config.scale = 5;
    std::string out = "BENCH_vpd.json";
    std::string spec = "fcm3@1024/4096x4";
    std::string clientsArg = "1,4";
    std::string engineArg = "both";
    size_t batch = 512;

    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char *name) {
            return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
        };
        if (arg("--scale")) {
            config.scale = std::atoi(argv[++i]);
        } else if (arg("--clients")) {
            clientsArg = argv[++i];
        } else if (arg("--batch")) {
            batch = static_cast<size_t>(std::atol(argv[++i]));
        } else if (arg("--spec")) {
            spec = argv[++i];
        } else if (arg("--engine")) {
            engineArg = argv[++i];
        } else if (arg("--out")) {
            out = argv[++i];
        } else {
            std::fprintf(
                    stderr,
                    "usage: vpd_loadgen [--scale N] [--clients LIST] "
                    "[--batch N] [--spec S] "
                    "[--engine thread|epoll|both] [--out FILE]\n");
            return 2;
        }
    }
    if (batch == 0)
        batch = 512;

    std::vector<unsigned> clientCounts;
    for (size_t at = 0; at < clientsArg.size();) {
        const size_t comma = clientsArg.find(',', at);
        const std::string tok = clientsArg.substr(
                at, comma == std::string::npos ? std::string::npos
                                               : comma - at);
        const int n = std::atoi(tok.c_str());
        if (n > 0)
            clientCounts.push_back(static_cast<unsigned>(n));
        if (comma == std::string::npos)
            break;
        at = comma + 1;
    }
    if (clientCounts.empty())
        clientCounts = {1, 4};

    std::vector<net::Engine> engines;
    if (engineArg == "thread" || engineArg == "both")
        engines.push_back(net::Engine::Thread);
    if (engineArg == "epoll" || engineArg == "both")
        engines.push_back(net::Engine::Epoll);
    if (engines.empty()) {
        std::fprintf(stderr, "unknown --engine %s\n",
                     engineArg.c_str());
        return 2;
    }

    std::vector<Trace> traces;
    uint64_t totalEvents = 0;
    for (const auto &info : workloads::allWorkloads()) {
        traces.push_back(recordTrace(info, config, spec));
        totalEvents += traces.back().events.size();
        std::fprintf(stderr, "%-9s %8zu events\n",
                     traces.back().workload.c_str(),
                     traces.back().events.size());
    }

    std::vector<CellResult> cells;
    bool allIdentical = true;
    for (const auto engine : engines) {
        for (const unsigned clients : clientCounts) {
            cells.push_back(
                    runCell(traces, spec, engine, clients, batch));
            const auto &cell = cells.back();
            allIdentical = allIdentical && cell.identical;
            std::fprintf(stderr,
                         "%-6s clients=%u: %9.0f pred/s  "
                         "p50 %.0fus p99 %.0fus p99.9 %.0fus  "
                         "identity %s\n",
                         cell.engine.c_str(), cell.clients,
                         cell.predictionsPerSec, cell.p50Us,
                         cell.p99Us, cell.p999Us,
                         cell.identical ? "ok" : "FAILED");
        }
    }

    std::ofstream json(out);
    if (!json) {
        std::fprintf(stderr, "cannot open %s\n", out.c_str());
        return 1;
    }
    char date[64] = "";
    const std::time_t now = std::time(nullptr);
    std::strftime(date, sizeof(date), "%FT%T%z", std::localtime(&now));

    json << "{\n  \"context\": {\n"
         << "    \"date\": \"" << date << "\",\n"
         << "    \"scale\": " << config.scale << ",\n"
         << "    \"hardware_concurrency\": "
         << std::thread::hardware_concurrency() << ",\n"
         << "    \"spec\": \"" << spec << "\",\n"
         << "    \"batch_events\": " << batch << ",\n"
         << "    \"workloads\": " << traces.size() << ",\n"
         << "    \"events_per_tenant_set\": " << totalEvents << "\n"
         << "  },\n  \"runs\": [\n";
    for (size_t i = 0; i < cells.size(); ++i) {
        const auto &cell = cells[i];
        json << "    {\"engine\": \"" << cell.engine
             << "\", \"clients\": " << cell.clients
             << ", \"tenants\": " << cell.tenants
             << ", \"events\": " << cell.events
             << ", \"frames\": " << cell.frames
             << ", \"wall_ms\": " << cell.wallMs
             << ", \"predictions_per_sec\": " << cell.predictionsPerSec
             << ", \"p50_us\": " << cell.p50Us
             << ", \"p99_us\": " << cell.p99Us
             << ", \"p999_us\": " << cell.p999Us
             << ", \"stats_identical_to_serial\": "
             << (cell.identical ? "true" : "false") << "}"
             << (i + 1 < cells.size() ? "," : "") << "\n";
    }
    json << "  ]\n}\n";
    std::fprintf(stderr, "wrote %s\n", out.c_str());
    return allIdentical ? 0 : 1;
}
