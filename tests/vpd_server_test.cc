/**
 * @file
 * End-to-end tests for the vpd server: request round trips,
 * concurrent-client byte-identity against serial replay (synthetic
 * streams, and the seven workload traces under vpd's default
 * bounded spec), the STATS
 * surface, typed protocol errors over the wire, client disconnect
 * mid-frame, stop with in-flight requests, a peer that never reads
 * its replies, and Unix-socket transport.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include <fcntl.h>
#include <netinet/in.h>
#include <sys/socket.h>
#include <unistd.h>

#include "exp/suite.hh"
#include "net/client.hh"
#include "net/server.hh"
#include "sim/driver.hh"
#include "synth/sequences.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace {

using namespace vp;
using vm::TraceEvent;

std::vector<TraceEvent>
sampleStream(size_t n, uint64_t seed)
{
    synth::Rng rng(seed);
    std::vector<TraceEvent> events;
    uint64_t counter = seed;
    for (size_t i = 0; i < n; ++i) {
        TraceEvent event{};
        event.op = (i % 2 == 0) ? isa::Opcode::Add : isa::Opcode::Ld;
        event.cat = isa::opcodeCategory(event.op);
        event.pc = 8 * rng.range(48);
        event.value = (rng.range(2) == 0) ? (counter += 8)
                                          : event.pc * 5;
        events.push_back(event);
    }
    return events;
}

net::TenantStats
serialReference(const std::vector<TraceEvent> &events,
                const std::string &spec)
{
    sim::PredictorBank bank;
    bank.add(exp::makePredictor(spec));
    vm::VectorBatchSource source(events, 1);
    sim::replayTrace(source, bank);
    return net::TenantStats::from(bank.member(0).stats);
}

/** @p info's trace at smoke scale (5%). */
std::vector<TraceEvent>
smokeTrace(const workloads::WorkloadInfo &info)
{
    workloads::WorkloadConfig config;
    config.scale = 5;
    vm::RecordingSink sink;
    vm::Machine machine;
    machine.setSink(&sink);
    EXPECT_TRUE(machine.run(info.build(config)).ok()) << info.name;
    return std::move(sink.events);
}

/**
 * Streams served concurrently under one spec: tenant t is
 * streams[tenants[t].second], sent by client tenants[t].first.
 */
struct ServedLoad
{
    std::string spec;
    unsigned clients = 0;
    std::vector<std::vector<TraceEvent>> streams;
    std::vector<std::pair<unsigned, size_t>> tenants;
};

/** Five clients, each sending its own synthetic stream as one tenant. */
ServedLoad
syntheticLoad()
{
    ServedLoad load;
    load.spec = "fcm3";
    load.clients = 5;
    for (unsigned c = 0; c < load.clients; ++c) {
        load.streams.push_back(sampleStream(4000, 50 + c));
        load.tenants.emplace_back(c, c);
    }
    return load;
}

/**
 * The seven workload traces at smoke scale under vpd's default spec:
 * four clients each send every trace, one tenant per (client,
 * workload) pair.
 */
ServedLoad
workloadLoad()
{
    ServedLoad load;
    load.spec = net::ShardedBankConfig{}.spec;
    load.clients = 4;
    for (const auto &info : workloads::allWorkloads())
        load.streams.push_back(smokeTrace(info));
    for (unsigned c = 0; c < load.clients; ++c)
        for (size_t w = 0; w < load.streams.size(); ++w)
            load.tenants.emplace_back(c, w);
    return load;
}

struct ServedInput
{
    const char *name;
    ServedLoad (*load)();
};

/** Names the case: gtest_discover_tests puts GetParam() in its name. */
void
PrintTo(const ServedInput &input, std::ostream *os)
{
    *os << input.name;
}

class VpdServerTest : public ::testing::TestWithParam<ServedInput>
{
  protected:
    net::VpdServerConfig
    baseConfig() const
    {
        net::VpdServerConfig config;
        config.banks.spec = "fcm3";
        return config;
    }
};

TEST_F(VpdServerTest, RoundTrips)
{
    net::VpdServer server(baseConfig());
    server.start();
    auto client = net::VpdClient::connectTcp(server.port());

    // Unseen tenant: no stats, predictions invalid.
    EXPECT_FALSE(client.tenantStats(1).has_value());

    // TRAIN runs the full protocol event by event.
    const auto events = sampleStream(600, 3);
    uint64_t predicted = 0, correct = 0;
    for (const auto &event : events) {
        const auto reply = client.train(1, event);
        predicted += reply.predicted;
        correct += reply.correct;
    }
    const auto reference = serialReference(events, "fcm3");
    const auto stats = client.tenantStats(1);
    ASSERT_TRUE(stats.has_value());
    EXPECT_EQ(*stats, reference);
    EXPECT_EQ(predicted, reference.predicted);
    EXPECT_EQ(correct, reference.correct);

    // PREDICT answers from the trained bank without grading stats.
    (void)client.predict(1, events.back().pc);
    EXPECT_EQ(*client.tenantStats(1), reference);

    server.stop();
}

TEST_F(VpdServerTest, BatchMatchesSerialReplay)
{
    net::VpdServer server(baseConfig());
    server.start();
    auto client = net::VpdClient::connectTcp(server.port());

    const auto events = sampleStream(5000, 5);
    uint64_t predicted = 0, correct = 0;
    for (size_t i = 0; i < events.size(); i += 512) {
        const size_t n = std::min<size_t>(512, events.size() - i);
        const auto reply = client.batch(
                7, vm::TraceSpan(events.data() + i, n));
        EXPECT_EQ(reply.count, n);
        predicted += reply.predicted;
        correct += reply.correct;
    }
    const auto reference = serialReference(events, "fcm3");
    EXPECT_EQ(*client.tenantStats(7), reference);
    EXPECT_EQ(predicted, reference.predicted);
    EXPECT_EQ(correct, reference.correct);
    server.stop();
}

TEST_P(VpdServerTest, ConcurrentClientsByteIdentical)
{
    // The acceptance bar: >= 4 concurrent clients, each sending its
    // streams in 256-event BATCH frames; server-side per-tenant
    // statistics must equal the serial single-bank replay exactly.
    const ServedLoad load = GetParam().load();
    net::VpdServerConfig config;
    config.banks.spec = load.spec;
    net::VpdServer server(config);
    server.start();

    std::vector<std::thread> workers;
    std::atomic<int> failures{0};
    for (unsigned c = 0; c < load.clients; ++c) {
        workers.emplace_back([&, c] {
            try {
                auto client =
                        net::VpdClient::connectTcp(server.port());
                for (uint64_t t = 0; t < load.tenants.size(); ++t) {
                    if (load.tenants[t].first != c)
                        continue;
                    const auto &events =
                            load.streams[load.tenants[t].second];
                    for (size_t i = 0; i < events.size(); i += 256) {
                        const size_t n = std::min<size_t>(
                                256, events.size() - i);
                        client.batch(t, vm::TraceSpan(events.data() + i,
                                                      n));
                    }
                }
            } catch (...) {
                ++failures;
            }
        });
    }
    for (auto &worker : workers)
        worker.join();
    EXPECT_EQ(failures.load(), 0);

    std::vector<net::TenantStats> references;
    for (const auto &events : load.streams)
        references.push_back(serialReference(events, load.spec));
    auto checker = net::VpdClient::connectTcp(server.port());
    for (uint64_t t = 0; t < load.tenants.size(); ++t) {
        const auto stats = checker.tenantStats(t);
        ASSERT_TRUE(stats.has_value()) << "tenant " << t;
        EXPECT_EQ(*stats, references[load.tenants[t].second])
                << "tenant " << t;
    }
    server.stop();
}

INSTANTIATE_TEST_SUITE_P(
        Served, VpdServerTest,
        ::testing::Values(ServedInput{"Synthetic", syntheticLoad},
                          ServedInput{"Workloads", workloadLoad}));

TEST_F(VpdServerTest, StatsSurface)
{
    net::VpdServer server(baseConfig());
    server.start();
    auto client = net::VpdClient::connectTcp(server.port());

    const auto events = sampleStream(256, 9);
    client.batch(1, vm::TraceSpan(events.data(), events.size()));
    (void)client.predict(1, events[0].pc);

    const std::string text = client.stats();
    EXPECT_NE(text.find("net.connections 1"), std::string::npos)
            << text;
    EXPECT_NE(text.find("net.frames.batch 1"), std::string::npos);
    EXPECT_NE(text.find("net.frames.predict 1"), std::string::npos);
    EXPECT_NE(text.find("net.batch_events 256"), std::string::npos);
    EXPECT_NE(text.find("net.protocol_errors 0"), std::string::npos);
    EXPECT_NE(text.find("net.bytes_in"), std::string::npos);
    EXPECT_NE(text.find("net.bytes_out"), std::string::npos);
    EXPECT_NE(text.find("pool.acquires"), std::string::npos);
    EXPECT_NE(text.find("shard.banks 1"), std::string::npos);
    EXPECT_NE(text.find("shard.contentions"), std::string::npos);

    // The same numbers through the in-process snapshot API.
    const auto snapshot = server.statsSnapshot();
    EXPECT_EQ(snapshot.counter("net.batch_events"), 256u);
    EXPECT_EQ(snapshot.counter("net.frames.batch"), 1u);
    server.stop();
}

TEST_F(VpdServerTest, UnknownOpcodeAnswersTypedErrorAndServerSurvives)
{
    net::VpdServer server(baseConfig());
    server.start();
    {
        auto client = net::VpdClient::connectTcp(server.port());
        std::vector<uint8_t> bad;
        net::putU32(bad, 1);
        net::putU8(bad, 0x42);      // not an opcode
        client.sendRaw(bad.data(), bad.size());
        const auto reply = client.readFrame();
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(reply->op, net::Op::Error);
        const auto error = net::decodeErrorReply(
                std::span<const uint8_t>(reply->payload));
        EXPECT_EQ(error.code, net::ProtoError::UnknownOpcode);
        // The server closes the broken connection.
        EXPECT_FALSE(client.readFrame().has_value());
    }
    {
        // Zero length prefix: BadLength.
        auto client = net::VpdClient::connectTcp(server.port());
        const uint8_t zero[4] = {0, 0, 0, 0};
        client.sendRaw(zero, sizeof(zero));
        const auto reply = client.readFrame();
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(net::decodeErrorReply(
                          std::span<const uint8_t>(reply->payload))
                          .code,
                  net::ProtoError::BadLength);
    }
    {
        // Oversized length prefix: Oversized.
        auto client = net::VpdClient::connectTcp(server.port());
        std::vector<uint8_t> huge;
        net::putU32(huge, net::kMaxFrameLength + 1);
        client.sendRaw(huge.data(), huge.size());
        const auto reply = client.readFrame();
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(net::decodeErrorReply(
                          std::span<const uint8_t>(reply->payload))
                          .code,
                  net::ProtoError::Oversized);
    }
    {
        // Truncated payload inside a well-framed message: Truncated,
        // surfaced through the client as a typed ProtocolError.
        auto client = net::VpdClient::connectTcp(server.port());
        std::vector<uint8_t> bad;
        net::putU32(bad, 1 + 8);    // PREDICT needs 16 payload bytes
        net::putU8(bad, static_cast<uint8_t>(net::Op::Predict));
        net::putU64(bad, 1);
        client.sendRaw(bad.data(), bad.size());
        const auto reply = client.readFrame();
        ASSERT_TRUE(reply.has_value());
        EXPECT_EQ(net::decodeErrorReply(
                          std::span<const uint8_t>(reply->payload))
                          .code,
                  net::ProtoError::Truncated);
    }

    // After all that abuse the server still serves new clients.
    auto client = net::VpdClient::connectTcp(server.port());
    const auto events = sampleStream(64, 2);
    const auto reply =
            client.batch(3, vm::TraceSpan(events.data(), events.size()));
    EXPECT_EQ(reply.count, events.size());
    const auto snapshot = server.statsSnapshot();
    EXPECT_EQ(snapshot.counter("net.protocol_errors"), 4u);
    server.stop();
}

TEST_F(VpdServerTest, ClientDisconnectMidFrameIsHarmless)
{
    net::VpdServer server(baseConfig());
    server.start();
    {
        auto client = net::VpdClient::connectTcp(server.port());
        // Announce a 1000-byte frame, send only a sliver, vanish.
        std::vector<uint8_t> partial;
        net::putU32(partial, 1000);
        net::putU8(partial, static_cast<uint8_t>(net::Op::Batch));
        net::putU64(partial, 1);
        client.sendRaw(partial.data(), partial.size());
        client.close();
    }
    // The server shrugs it off and keeps serving.
    auto client = net::VpdClient::connectTcp(server.port());
    const auto events = sampleStream(128, 7);
    EXPECT_EQ(client.batch(1, vm::TraceSpan(events.data(),
                                            events.size()))
                      .count,
              events.size());
    server.stop();
}

TEST_F(VpdServerTest, StopWithInFlightRequestsDoesNotHang)
{
    net::VpdServer server(baseConfig());
    server.start();

    constexpr unsigned kClients = 4;
    std::atomic<bool> stopSending{false};
    std::atomic<uint64_t> completed{0};
    std::vector<std::thread> workers;
    for (unsigned c = 0; c < kClients; ++c) {
        workers.emplace_back([&, c] {
            try {
                auto client =
                        net::VpdClient::connectTcp(server.port());
                const auto events = sampleStream(512, 80 + c);
                while (!stopSending.load()) {
                    client.batch(c, vm::TraceSpan(events.data(),
                                                  events.size()));
                    ++completed;
                }
            } catch (...) {
                // Expected once the server stops under our feet.
            }
        });
    }
    // Let traffic build, then stop with requests in flight.
    while (completed.load() < 8)
        std::this_thread::yield();
    server.stop();
    stopSending.store(true);
    for (auto &worker : workers)
        worker.join();
    EXPECT_GE(completed.load(), 8u);
    // Idempotent.
    server.stop();
}

TEST_F(VpdServerTest, PeerThatNeverReadsIsBoundedAndStopReturns)
{
    // A peer pipelines STATS frames and never reads a reply. The
    // server's blocking write is the back-pressure: it must take in a
    // bounded amount, keep serving other clients, and stop() must
    // still return although that connection's send is blocked.
    net::VpdServer server(baseConfig());
    server.start();

    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(server.port());
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof(addr)),
              0);
    ASSERT_EQ(::fcntl(fd, F_SETFL, ::fcntl(fd, F_GETFL, 0) | O_NONBLOCK),
              0);
    std::atomic<int> peer{fd};

    // Offer 4 MiB of STATS requests; stop once the socket has
    // refused more for a while (the server has stopped reading).
    std::vector<uint8_t> frames;
    while (frames.size() < (size_t{4} << 20))
        net::encodeStats(frames);
    using Clock = std::chrono::steady_clock;
    size_t sent = 0;
    auto lastProgress = Clock::now();
    while (sent < frames.size() &&
           Clock::now() - lastProgress < std::chrono::milliseconds(300)) {
        const ssize_t w = ::send(fd, frames.data() + sent,
                                 frames.size() - sent, MSG_NOSIGNAL);
        if (w > 0) {
            sent += static_cast<size_t>(w);
            lastProgress = Clock::now();
        } else if (w < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
                   errno != EINTR) {
            ADD_FAILURE() << "send: " << std::strerror(errno);
            break;
        } else {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
        }
    }
    EXPECT_LT(server.statsSnapshot().counter("net.bytes_in"),
              uint64_t{1} << 20)
            << "offered " << sent << " bytes";

    // Another client is still served.
    {
        auto client = net::VpdClient::connectTcp(server.port());
        const auto events = sampleStream(64, 4);
        EXPECT_EQ(client.batch(2, vm::TraceSpan(events.data(),
                                                events.size()))
                          .count,
                  events.size());
    }

    // stop() must return on its own; if it hangs, the watchdog closes
    // the peer (which unblocks the server) and records the failure.
    std::atomic<bool> stopped{false}, watchdogFired{false};
    std::thread watchdog([&] {
        const auto deadline = Clock::now() + std::chrono::seconds(5);
        while (!stopped.load() && Clock::now() < deadline)
            std::this_thread::sleep_for(std::chrono::milliseconds(10));
        if (!stopped.load()) {
            watchdogFired.store(true);
            if (const int open = peer.exchange(-1); open >= 0)
                ::close(open);
        }
    });
    server.stop();
    stopped.store(true);
    watchdog.join();
    EXPECT_FALSE(watchdogFired.load())
            << "stop() blocked on a peer that never reads";
    if (const int open = peer.exchange(-1); open >= 0)
        ::close(open);
}

TEST_F(VpdServerTest, UnixSocketTransport)
{
    const std::string path =
            (std::filesystem::temp_directory_path() /
             ("vpd-test-" + std::to_string(::getpid()) + ".sock"))
                    .string();
    std::filesystem::remove(path);

    auto config = baseConfig();
    config.unixPath = path;
    net::VpdServer server(config);
    server.start();

    auto client = net::VpdClient::connectUnix(path);
    const auto events = sampleStream(2000, 15);
    for (size_t i = 0; i < events.size(); i += 256) {
        const size_t n = std::min<size_t>(256, events.size() - i);
        client.batch(4, vm::TraceSpan(events.data() + i, n));
    }
    EXPECT_EQ(*client.tenantStats(4), serialReference(events, "fcm3"));
    server.stop();
    std::filesystem::remove(path);
}

} // namespace
