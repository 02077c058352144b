/**
 * @file
 * VpdServer: prediction-as-a-service over the vpd wire protocol.
 *
 * Listens on loopback TCP (ephemeral port by default) or a Unix
 * socket and serves PREDICT / TRAIN / BATCH / STATS / TENANT_STATS
 * frames against a ShardedBankMap. One engine: an accept thread
 * spawns one blocking read/write thread per connection and reaps it
 * once the connection ends. Connection buffers are pooled across
 * connection churn so the steady state is allocation-free (see
 * buffer_pool.hh).
 *
 * Back-pressure is the blocking write: a connection thread does not
 * read its next chunk until the replies to the previous one have been
 * sent, so a peer that never reads stalls only its own thread, after
 * the socket buffers fill, and the server never buffers more than one
 * chunk's replies per connection.
 *
 * Protocol errors are answered with a typed ERROR frame, counted,
 * and close the offending connection; they never take the server
 * down. stop() is idempotent and safe with in-flight requests: it
 * shuts down both directions of every connection, so a frame being
 * processed finishes but replies the peer has not read yet are
 * dropped, and a thread blocked sending to a peer that never reads
 * wakes up. vpd_server_test pins both cases.
 *
 * The STATS surface is an obs::Registry snapshot: serve-side
 * counters are plain atomics (many connection threads bump them),
 * imported into a throwaway single-owner Registry at STATS time so the
 * reply, `vpd --stats` and perfbench's pb_load all read one obs::Snapshot
 * the same way.
 */

#ifndef VP_NET_SERVER_HH
#define VP_NET_SERVER_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "net/buffer_pool.hh"
#include "net/protocol.hh"
#include "net/sharded_bank.hh"
#include "obs/registry.hh"
#include "util/mutex.hh"

namespace vp::net {

struct VpdServerConfig
{
    ShardedBankConfig banks;

    /** TCP port on 127.0.0.1; 0 = ephemeral (see VpdServer::port). */
    uint16_t port = 0;

    /** When non-empty: listen on this Unix socket path instead. */
    std::string unixPath;

    /** Frame length-prefix ceiling handed to every FrameDecoder. */
    uint32_t maxFrameLength = kMaxFrameLength;
};

class VpdServer
{
  public:
    explicit VpdServer(VpdServerConfig config);
    ~VpdServer();

    VpdServer(const VpdServer &) = delete;
    VpdServer &operator=(const VpdServer &) = delete;

    /** Bind, listen and start accepting.
     *  @throws std::system_error on socket failures. */
    void start();

    /** Shutdown; idempotent, safe with in-flight requests, returns even
     *  when a peer never reads (see the file comment). */
    void stop();

    /** The bound TCP port (after start(); 0 for Unix servers). */
    uint16_t port() const { return boundPort_; }

    const ShardedBankMap &banks() const { return banks_; }
    ShardedBankMap &banks() { return banks_; }

    /**
     * Server counters as one obs::Snapshot: net.* (connections,
     * frames by opcode, bytes in/out, protocol errors), pool.*
     * (acquires/reuses) and shard.* (banks, stripes, contentions).
     * This is exactly what the STATS reply renders.
     */
    obs::Snapshot statsSnapshot() const;

  private:
    struct Conn;

    void runAccept();
    void runConnThread(int fd);

    /** Dispatch one decoded frame; appends the reply to @p reply. */
    void processFrame(const FrameDecoder::Frame &frame,
                      std::vector<uint8_t> &reply,
                      std::vector<vm::TraceEvent> &scratch);

    void closeListener();

    VpdServerConfig config_;
    ShardedBankMap banks_;
    BufferPool pool_;

    int listenFd_ = -1;
    uint16_t boundPort_ = 0;
    std::atomic<bool> running_{false};
    bool started_ = false;

    std::thread acceptThread_;

    // stop() holds connMutex_ across the shutdown + join + clear
    // sweep, so the connection list is lock-guarded for its whole
    // lifetime (not merely join-ordered).
    util::Mutex connMutex_;
    std::vector<std::unique_ptr<Conn>> conns_ VP_GUARDED_BY(connMutex_);

    // Serve-side counters (atomics: see file comment).
    std::atomic<uint64_t> acceptedConns_{0};
    std::atomic<uint64_t> openConns_{0};
    std::atomic<uint64_t> frames_{0};
    std::atomic<uint64_t> framesPredict_{0};
    std::atomic<uint64_t> framesTrain_{0};
    std::atomic<uint64_t> framesBatch_{0};
    std::atomic<uint64_t> framesStats_{0};
    std::atomic<uint64_t> batchEvents_{0};
    std::atomic<uint64_t> bytesIn_{0};
    std::atomic<uint64_t> bytesOut_{0};
    std::atomic<uint64_t> protocolErrors_{0};
};

/**
 * Render a snapshot as the STATS reply text: one sorted
 * "name value" line per counter/gauge (histograms: count/mean/max) —
 * shared by the STATS frame handler and `vpd --stats`.
 */
std::string renderSnapshot(const obs::Snapshot &snapshot);

} // namespace vp::net

#endif // VP_NET_SERVER_HH
