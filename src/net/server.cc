#include "net/server.hh"

#include <cerrno>
#include <cstring>
#include <system_error>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

namespace vp::net {

namespace {

[[noreturn]] void
throwErrno(const char *what)
{
    throw std::system_error(errno, std::generic_category(), what);
}

void
setNoDelay(int fd)
{
    int one = 1;
    // Best effort: fails with ENOTSUP-style errors on Unix sockets,
    // where there is no Nagle to disable anyway.
    (void)::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one, sizeof(one));
}

/** Blocking full write with MSG_NOSIGNAL; false on peer error. */
bool
writeAll(int fd, const uint8_t *data, size_t n)
{
    size_t off = 0;
    while (off < n) {
        const ssize_t w =
                ::send(fd, data + off, n - off, MSG_NOSIGNAL);
        if (w < 0) {
            if (errno == EINTR)
                continue;
            return false;
        }
        off += static_cast<size_t>(w);
    }
    return true;
}

int
listenTcp(uint16_t port, uint16_t &bound_port)
{
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    if (fd < 0)
        throwErrno("socket(AF_INET)");
    int one = 1;
    (void)::setsockopt(fd, SOL_SOCKET, SO_REUSEADDR, &one, sizeof(one));

    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(port);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        ::close(fd);
        throwErrno("bind(127.0.0.1)");
    }
    if (::listen(fd, 128) < 0) {
        ::close(fd);
        throwErrno("listen");
    }
    socklen_t len = sizeof(addr);
    if (::getsockname(fd, reinterpret_cast<sockaddr *>(&addr), &len) <
        0) {
        ::close(fd);
        throwErrno("getsockname");
    }
    bound_port = ntohs(addr.sin_port);
    return fd;
}

int
listenUnix(const std::string &path)
{
    sockaddr_un addr{};
    if (path.size() >= sizeof(addr.sun_path))
        throw std::system_error(ENAMETOOLONG, std::generic_category(),
                                "unix socket path");
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (fd < 0)
        throwErrno("socket(AF_UNIX)");
    ::unlink(path.c_str());
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::bind(fd, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        ::close(fd);
        throwErrno("bind(unix)");
    }
    if (::listen(fd, 128) < 0) {
        ::close(fd);
        throwErrno("listen(unix)");
    }
    return fd;
}

} // anonymous namespace

// ---- connection state ----------------------------------------------

/** One connection: fd plus its serving thread. */
struct VpdServer::Conn
{
    int fd = -1;
    std::thread thread;
    std::atomic<bool> done{false};
};

// ---- server --------------------------------------------------------

VpdServer::VpdServer(VpdServerConfig config)
    : config_(std::move(config)), banks_(config_.banks)
{
}

VpdServer::~VpdServer()
{
    stop();
}

void
VpdServer::start()
{
    if (started_)
        return;
    if (!config_.unixPath.empty())
        listenFd_ = listenUnix(config_.unixPath);
    else
        listenFd_ = listenTcp(config_.port, boundPort_);

    running_.store(true);
    acceptThread_ = std::thread([this] { runAccept(); });
    started_ = true;
}

void
VpdServer::closeListener()
{
    if (listenFd_ >= 0) {
        // shutdown() wakes a blocked accept(); the fd itself is
        // closed only after the accept thread joins.
        ::shutdown(listenFd_, SHUT_RDWR);
    }
}

void
VpdServer::stop()
{
    if (!started_)
        return;
    running_.store(false);
    closeListener();
    if (acceptThread_.joinable())
        acceptThread_.join();
    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    if (!config_.unixPath.empty())
        ::unlink(config_.unixPath.c_str());

    // Wake every connection and join. Both directions: a blocked
    // recv returns 0 once the frame in flight has finished, and a
    // send blocked on a peer that never reads fails with EPIPE (a
    // read-side shutdown alone would leave it blocked forever). The
    // whole sweep holds connMutex_, which is deadlock-free because
    // connection threads never take it (only the accept thread and
    // stop() do).
    {
        const util::MutexLock lock(connMutex_);
        for (auto &conn : conns_) {
            if (!conn->done.load() && conn->fd >= 0)
                ::shutdown(conn->fd, SHUT_RDWR);
        }
        for (auto &conn : conns_) {
            if (conn->thread.joinable())
                conn->thread.join();
            if (conn->fd >= 0)
                ::close(conn->fd);
        }
        conns_.clear();
    }
    started_ = false;
}

void
VpdServer::runAccept()
{
    while (running_.load()) {
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            break;      // listener shut down (or fatal): stop accepting
        }
        if (!running_.load()) {
            ::close(fd);
            break;
        }
        setNoDelay(fd);
        acceptedConns_.fetch_add(1, std::memory_order_relaxed);
        openConns_.fetch_add(1, std::memory_order_relaxed);

        // Reap finished connections, then spawn.
        const util::MutexLock lock(connMutex_);
        for (auto it = conns_.begin(); it != conns_.end();) {
            if ((*it)->done.load()) {
                if ((*it)->thread.joinable())
                    (*it)->thread.join();
                if ((*it)->fd >= 0)
                    ::close((*it)->fd);
                it = conns_.erase(it);
            } else {
                ++it;
            }
        }
        auto conn = std::make_unique<Conn>();
        conn->fd = fd;
        Conn *raw = conn.get();
        conn->thread = std::thread([this, raw] {
            runConnThread(raw->fd);
            raw->done.store(true);
        });
        conns_.push_back(std::move(conn));
    }
}

void
VpdServer::runConnThread(int fd)
{
    std::vector<uint8_t> rbuf = pool_.acquire();
    rbuf.resize(64 * 1024);
    FrameDecoder decoder(config_.maxFrameLength, pool_.acquire());
    std::vector<uint8_t> wbuf = pool_.acquire();
    std::vector<vm::TraceEvent> scratch;

    bool open = true;
    while (open) {
        const ssize_t n = ::recv(fd, rbuf.data(), rbuf.size(), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (n == 0)
            break;      // EOF or stop()'s shutdown
        bytesIn_.fetch_add(static_cast<uint64_t>(n),
                           std::memory_order_relaxed);
        decoder.feed(rbuf.data(), static_cast<size_t>(n));
        wbuf.clear();
        try {
            while (auto frame = decoder.next())
                processFrame(*frame, wbuf, scratch);
        } catch (const ProtocolError &error) {
            protocolErrors_.fetch_add(1, std::memory_order_relaxed);
            encodeError(wbuf, error.code, error.what());
            open = false;       // framing is lost: close after reply
        }
        if (!wbuf.empty()) {
            if (!writeAll(fd, wbuf.data(), wbuf.size()))
                break;
            bytesOut_.fetch_add(wbuf.size(),
                                std::memory_order_relaxed);
        }
    }
    ::shutdown(fd, SHUT_RDWR);
    pool_.release(std::move(rbuf));
    pool_.release(decoder.takeBuffer());
    pool_.release(std::move(wbuf));
    openConns_.fetch_sub(1, std::memory_order_relaxed);
}

void
VpdServer::processFrame(const FrameDecoder::Frame &frame,
                        std::vector<uint8_t> &reply,
                        std::vector<vm::TraceEvent> &scratch)
{
    frames_.fetch_add(1, std::memory_order_relaxed);
    switch (frame.op) {
    case Op::Predict: {
        framesPredict_.fetch_add(1, std::memory_order_relaxed);
        const PredictRequest req = decodePredict(frame.payload);
        const auto pred = banks_.predict(req.tenant, req.pc);
        encodePredictReply(reply, pred.valid, pred.value);
        return;
    }
    case Op::Train: {
        framesTrain_.fetch_add(1, std::memory_order_relaxed);
        const TrainRequest req = decodeTrain(frame.payload);
        const auto outcome = banks_.applyOne(req.tenant, req.event);
        encodeTrainReply(reply, outcome.predicted, outcome.correct);
        return;
    }
    case Op::Batch: {
        framesBatch_.fetch_add(1, std::memory_order_relaxed);
        const uint64_t tenant = decodeBatch(frame.payload, scratch);
        const auto outcome = banks_.applyBatch(
                tenant, vm::TraceSpan(scratch.data(), scratch.size()));
        batchEvents_.fetch_add(outcome.events,
                               std::memory_order_relaxed);
        encodeBatchReply(reply,
                         static_cast<uint32_t>(outcome.events),
                         outcome.predicted, outcome.correct);
        return;
    }
    case Op::Stats: {
        framesStats_.fetch_add(1, std::memory_order_relaxed);
        encodeStatsReply(reply, renderSnapshot(statsSnapshot()));
        return;
    }
    case Op::TenantStats: {
        framesStats_.fetch_add(1, std::memory_order_relaxed);
        const uint64_t tenant =
                decodeTenantStatsRequest(frame.payload);
        const auto stats = banks_.tenantStats(tenant);
        std::optional<TenantStats> wire;
        if (stats.has_value())
            wire = TenantStats::from(*stats);
        encodeTenantStatsReply(reply, wire);
        return;
    }
    default:
        throw ProtocolError(
                ProtoError::UnknownOpcode,
                "unknown opcode " +
                        std::to_string(static_cast<unsigned>(
                                frame.op)));
    }
}

obs::Snapshot
VpdServer::statsSnapshot() const
{
    // Import the atomic serve-side counters into a throwaway registry
    // so STATS, `vpd --stats` and perfbench's pb_load all read one
    // obs::Snapshot through the same machinery as vpexp --stats.
    obs::Registry registry;
    registry.add("net.connections",
                 acceptedConns_.load(std::memory_order_relaxed));
    registry.gauge("net.connections_open",
                   openConns_.load(std::memory_order_relaxed));
    registry.add("net.frames", frames_.load(std::memory_order_relaxed));
    registry.add("net.frames.predict",
                 framesPredict_.load(std::memory_order_relaxed));
    registry.add("net.frames.train",
                 framesTrain_.load(std::memory_order_relaxed));
    registry.add("net.frames.batch",
                 framesBatch_.load(std::memory_order_relaxed));
    registry.add("net.frames.stats",
                 framesStats_.load(std::memory_order_relaxed));
    registry.add("net.batch_events",
                 batchEvents_.load(std::memory_order_relaxed));
    registry.add("net.bytes_in",
                 bytesIn_.load(std::memory_order_relaxed));
    registry.add("net.bytes_out",
                 bytesOut_.load(std::memory_order_relaxed));
    registry.add("net.protocol_errors",
                 protocolErrors_.load(std::memory_order_relaxed));
    registry.add("pool.acquires", pool_.acquires());
    registry.add("pool.reuses", pool_.reuses());
    banks_.collect(registry);
    return registry.snapshot();
}

std::string
renderSnapshot(const obs::Snapshot &snapshot)
{
    std::string out;
    for (const auto &[name, value] : snapshot.counters)
        out += name + " " + std::to_string(value) + "\n";
    for (const auto &[name, value] : snapshot.gauges)
        out += name + " " + std::to_string(value) + "\n";
    for (const auto &[name, hist] : snapshot.histograms) {
        out += name + " count=" + std::to_string(hist.count) +
               " mean=" + std::to_string(hist.mean()) +
               " max=" + std::to_string(hist.max) + "\n";
    }
    return out;
}

} // namespace vp::net
