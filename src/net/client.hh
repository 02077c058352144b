/**
 * @file
 * Blocking vpd client: one connection, synchronous request/reply.
 *
 * The client perfbench's load threads and the server tests use —
 * each thread owns its own VpdClient (the class is not thread-safe;
 * the protocol is strictly request/reply per connection). Server-side
 * ERROR frames surface as ProtocolError with the server's typed code
 * wrapped as ProtoError::Remote semantics preserved in remoteCode.
 */

#ifndef VP_NET_CLIENT_HH
#define VP_NET_CLIENT_HH

#include <cstdint>
#include <optional>
#include <string>

#include "net/protocol.hh"
#include "vm/trace.hh"

namespace vp::net {

class VpdClient
{
  public:
    VpdClient() = default;
    ~VpdClient();

    VpdClient(VpdClient &&other) noexcept;
    VpdClient &operator=(VpdClient &&other) noexcept;
    VpdClient(const VpdClient &) = delete;
    VpdClient &operator=(const VpdClient &) = delete;

    /** Connect to a vpd server on 127.0.0.1:@p port.
     *  @throws std::system_error on connect failure. */
    static VpdClient connectTcp(uint16_t port);

    /** Connect to a vpd server on a Unix socket. */
    static VpdClient connectUnix(const std::string &path);

    bool connected() const { return fd_ >= 0; }

    /** PREDICT round trip. */
    PredictReply predict(uint64_t tenant, uint64_t pc);

    /** TRAIN round trip (full per-event protocol on the server). */
    TrainReply train(uint64_t tenant, const vm::TraceEvent &event);

    /** BATCH round trip: one frame carrying @p events. */
    BatchReply batch(uint64_t tenant, vm::TraceSpan events);

    /** STATS round trip: the rendered registry snapshot. */
    std::string stats();

    /** TENANT_STATS round trip; nullopt for unseen tenants. */
    std::optional<TenantStats> tenantStats(uint64_t tenant);

    /** Close the connection (idempotent). */
    void close();

    // -- raw access for protocol tests --------------------------------

    /** Write raw bytes (e.g. a deliberately truncated frame). */
    void sendRaw(const uint8_t *data, size_t n);

    /**
     * Read one reply frame; nullopt on EOF. The returned payload is
     * copied out of the decoder, so it survives further reads.
     * @throws ProtocolError on malformed replies.
     */
    struct RawFrame
    {
        Op op;
        std::vector<uint8_t> payload;
    };

    std::optional<RawFrame> readFrame();

  private:
    explicit VpdClient(int fd) : fd_(fd) {}

    /** Send @p request_, then read one reply frame; throws on ERROR
     *  replies and on an unexpected reply opcode. */
    RawFrame roundTrip(Op expect);

    int fd_ = -1;
    FrameDecoder decoder_;
    std::vector<uint8_t> request_;
    std::vector<uint8_t> chunk_;
};

} // namespace vp::net

#endif // VP_NET_CLIENT_HH
