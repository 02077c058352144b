/**
 * @file
 * `vpd` — the prediction server binary.
 *
 * Serves the vpd wire protocol (src/net/protocol.hh) against a
 * ShardedBankMap of per-tenant predictor banks.
 *
 * Usage: vpd [options]
 *   --spec S            predictor spec per bank (default fcm3@1024/4096x4)
 *   --stripes N         lock stripes, 1..65536 (default 64, rounded
 *                       to pow2)
 *   --port P            TCP port on 127.0.0.1, 0..65535 (default 0 =
 *                       ephemeral)
 *   --unix PATH         listen on a Unix socket instead of TCP
 *   --stats HOST:PORT   connect to a running server, print its STATS
 *                       snapshot (rendered obs::Registry), exit
 *   --stats-unix PATH   same over a Unix socket
 *   --smoke             start a loopback server, run one client
 *                       exchange against it, print the STATS
 *                       snapshot, exit 0 (the ctest smoke mode)
 *
 * Numeric options must be whole decimal tokens in range; anything
 * else prints usage and exits 2. Without --stats/--smoke the server
 * runs until SIGINT/SIGTERM, then stops (see VpdServer::stop).
 */

#include <charconv>
#include <csignal>
#include <cstdio>
#include <cstring>
#include <optional>
#include <string>

#include "exp/suite.hh"
#include "net/client.hh"
#include "net/server.hh"

using namespace vp;

namespace {

int
usage()
{
    std::fprintf(
            stderr,
            "usage: vpd [--spec S] [--stripes N]\n"
            "           [--port P | --unix PATH]\n"
            "           [--stats HOST:PORT | --stats-unix PATH]\n"
            "           [--smoke]\n");
    return 2;
}

/** @p text as a whole decimal number in [lo, hi], else nullopt. */
std::optional<unsigned>
parseUnsigned(const char *text, unsigned lo, unsigned hi)
{
    unsigned value = 0;
    const char *end = text + std::strlen(text);
    const auto [ptr, ec] = std::from_chars(text, end, value);
    if (ec != std::errc() || ptr != end || value < lo || value > hi)
        return std::nullopt;
    return value;
}

/** One tiny client exchange proving the server serves (--smoke). */
int
smokeExchange(net::VpdServer &server)
{
    auto client = net::VpdClient::connectTcp(server.port());
    std::vector<vm::TraceEvent> events;
    for (uint64_t i = 0; i < 256; ++i) {
        vm::TraceEvent event;
        event.pc = 64 + 8 * (i % 4);
        event.op = isa::Opcode::Add;
        event.cat = isa::Category::AddSub;
        event.value = 100 + i;      // stride stream: learnable
        events.push_back(event);
    }
    const auto reply = client.batch(
            7, vm::TraceSpan(events.data(), events.size()));
    if (reply.count != events.size()) {
        std::fprintf(stderr, "smoke: bad batch reply count %u\n",
                     reply.count);
        return 1;
    }
    const auto pred = client.predict(7, 64);
    if (!pred.valid) {
        std::fprintf(stderr,
                     "smoke: predictor did not learn the stream\n");
        return 1;
    }
    const auto stats = client.tenantStats(7);
    if (!stats.has_value() || stats->total != events.size()) {
        std::fprintf(stderr, "smoke: bad tenant stats\n");
        return 1;
    }
    std::fputs(client.stats().c_str(), stdout);
    return 0;
}

} // anonymous namespace

int
main(int argc, char **argv)
{
    net::VpdServerConfig config;
    bool smoke = false;
    std::string stats_tcp, stats_unix;

    for (int i = 1; i < argc; ++i) {
        const auto arg = [&](const char *name) {
            return std::strcmp(argv[i], name) == 0 && i + 1 < argc;
        };
        if (arg("--spec")) {
            config.banks.spec = argv[++i];
        } else if (arg("--stripes")) {
            const auto n = parseUnsigned(argv[++i], 1, 65536);
            if (!n)
                return usage();
            config.banks.stripes = *n;
        } else if (arg("--port")) {
            const auto n = parseUnsigned(argv[++i], 0, 65535);
            if (!n)
                return usage();
            config.port = static_cast<uint16_t>(*n);
        } else if (arg("--unix")) {
            config.unixPath = argv[++i];
        } else if (arg("--stats")) {
            stats_tcp = argv[++i];
        } else if (arg("--stats-unix")) {
            stats_unix = argv[++i];
        } else if (std::strcmp(argv[i], "--smoke") == 0) {
            smoke = true;
        } else {
            return usage();
        }
    }

    try {
        if (!stats_tcp.empty() || !stats_unix.empty()) {
            net::VpdClient client;
            if (!stats_unix.empty()) {
                client = net::VpdClient::connectUnix(stats_unix);
            } else {
                const auto colon = stats_tcp.rfind(':');
                const auto port =
                        colon == std::string::npos
                                ? std::nullopt
                                : parseUnsigned(stats_tcp.c_str() + colon + 1,
                                                1, 65535);
                if (!port)
                    return usage();
                client = net::VpdClient::connectTcp(
                        static_cast<uint16_t>(*port));
            }
            std::fputs(client.stats().c_str(), stdout);
            return 0;
        }

        // Validate the spec before binding anything.
        exp::makePredictor(config.banks.spec);

        net::VpdServer server(config);
        server.start();

        if (smoke) {
            const int rc = smokeExchange(server);
            server.stop();
            return rc;
        }

        if (config.unixPath.empty()) {
            std::fprintf(stderr,
                         "vpd: listening on 127.0.0.1:%u "
                         "(spec=%s, stripes=%u)\n",
                         server.port(), config.banks.spec.c_str(),
                         server.banks().stripes());
        } else {
            std::fprintf(stderr,
                         "vpd: listening on %s (spec=%s)\n",
                         config.unixPath.c_str(),
                         config.banks.spec.c_str());
        }

        sigset_t set;
        sigemptyset(&set);
        sigaddset(&set, SIGINT);
        sigaddset(&set, SIGTERM);
        pthread_sigmask(SIG_BLOCK, &set, nullptr);
        int sig = 0;
        sigwait(&set, &sig);
        std::fprintf(stderr, "vpd: signal %d, stopping\n", sig);
        server.stop();
        return 0;
    } catch (const std::exception &error) {
        std::fprintf(stderr, "vpd: %s\n", error.what());
        return 1;
    }
}
