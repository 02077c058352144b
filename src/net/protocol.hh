/**
 * @file
 * The vpd wire protocol: length-prefixed binary frames over a byte
 * stream (TCP or Unix socket).
 *
 * Frame layout (all integers little-endian, fixed width):
 *
 *   u32 length        bytes that follow (opcode + payload), >= 1
 *   u8  opcode        request or reply opcode (Op below)
 *   ...               payload, per opcode
 *
 * Request payloads:
 *
 *   PREDICT       u64 tenant | u64 pc
 *   TRAIN         u64 tenant | u64 pc | u64 value | u8 op | u8 cat
 *   BATCH         u64 tenant | u32 count
 *                 | count x { u64 pc | u64 value | u8 op | u8 cat }
 *   STATS         (empty)
 *   TENANT_STATS  u64 tenant
 *
 * Reply payloads:
 *
 *   R_PREDICT       u8 valid | u64 value
 *   R_TRAIN         u8 predicted | u8 correct
 *   R_BATCH         u32 count | u64 predicted | u64 correct
 *   R_STATS         utf-8 text (the rendered obs::Registry snapshot)
 *   R_TENANT_STATS  u8 known | TenantStats (below; absent when !known)
 *   ERROR           u8 code (ProtoError) | utf-8 message
 *
 * TRAIN and BATCH run the paper's full per-event protocol on the
 * server (predict, grade, update — Section 3), so server-side
 * statistics for a tenant's stream are byte-identical to a local
 * serial replay of the same events. PREDICT is a query: it does not
 * grade statistics, but like the protocol's predict half it may
 * advance recency/confidence state.
 *
 * Error handling is typed end to end: malformed length prefixes
 * (zero, oversized), unknown opcodes and truncated payloads each
 * raise a ProtocolError with a distinct ProtoError code; the server
 * answers with an ERROR frame carrying the same code and closes the
 * connection (a peer that cannot frame correctly cannot be resynced).
 * net_protocol_test fuzzes truncation at every byte, mirroring the
 * trace_file_test pattern.
 */

#ifndef VP_NET_PROTOCOL_HH
#define VP_NET_PROTOCOL_HH

#include <array>
#include <cstdint>
#include <cstring>
#include <optional>
#include <span>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/stats.hh"
#include "vm/trace.hh"

namespace vp::net {

/** Frame opcodes. Requests < 0x80, replies >= 0x80. */
enum class Op : uint8_t {
    Predict = 0x01,
    Train = 0x02,
    Batch = 0x03,
    Stats = 0x04,
    TenantStats = 0x05,

    RPredict = 0x81,
    RTrain = 0x82,
    RBatch = 0x83,
    RStats = 0x84,
    RTenantStats = 0x85,
    Error = 0x7F,
};

/** Typed protocol error codes (the u8 in ERROR frames). */
enum class ProtoError : uint8_t {
    BadLength = 1,      ///< zero length prefix
    Oversized = 2,      ///< length prefix above the frame limit
    UnknownOpcode = 3,  ///< opcode not in Op
    Truncated = 4,      ///< payload shorter than its opcode demands
    BadValue = 5,       ///< field out of domain (opcode/category byte)
    Remote = 6,         ///< client-side: the server reported an error
};

const char *protoErrorName(ProtoError code);

/** Thrown on any malformed frame; carries the typed code. */
struct ProtocolError : std::runtime_error
{
    ProtocolError(ProtoError code, const std::string &message)
        : std::runtime_error(message), code(code)
    {
    }

    ProtoError code;
};

/** Hard ceiling on the length prefix (opcode + payload bytes). */
constexpr uint32_t kMaxFrameLength = 1u << 24;

/** Encoded bytes per BATCH event: u64 pc + u64 value + u8 op + u8 cat. */
constexpr size_t kWireEventBytes = 18;

// ---- little-endian primitives --------------------------------------

inline void
putU8(std::vector<uint8_t> &out, uint8_t v)
{
    out.push_back(v);
}

inline void
putU32(std::vector<uint8_t> &out, uint32_t v)
{
    const size_t at = out.size();
    out.resize(at + 4);
    for (int i = 0; i < 4; ++i)
        out[at + static_cast<size_t>(i)] =
                static_cast<uint8_t>(v >> (8 * i));
}

inline void
putU64(std::vector<uint8_t> &out, uint64_t v)
{
    const size_t at = out.size();
    out.resize(at + 8);
    for (int i = 0; i < 8; ++i)
        out[at + static_cast<size_t>(i)] =
                static_cast<uint8_t>(v >> (8 * i));
}

/**
 * Bounds-checked little-endian reader over one frame payload. Every
 * short read throws ProtocolError{Truncated}, which is what makes the
 * truncation fuzz in net_protocol_test a pure behaviour check.
 */
class WireReader
{
  public:
    explicit WireReader(std::span<const uint8_t> data) : data_(data) {}

    size_t remaining() const { return data_.size() - pos_; }

    uint8_t
    u8()
    {
        need(1);
        return data_[pos_++];
    }

    uint32_t
    u32()
    {
        need(4);
        uint32_t v = 0;
        for (int i = 0; i < 4; ++i)
            v |= static_cast<uint32_t>(data_[pos_ + static_cast<size_t>(i)])
                 << (8 * i);
        pos_ += 4;
        return v;
    }

    uint64_t
    u64()
    {
        need(8);
        uint64_t v = 0;
        for (int i = 0; i < 8; ++i)
            v |= static_cast<uint64_t>(data_[pos_ + static_cast<size_t>(i)])
                 << (8 * i);
        pos_ += 8;
        return v;
    }

    /** The rest of the payload as text (R_STATS, ERROR messages). */
    std::string
    text()
    {
        std::string s(reinterpret_cast<const char *>(data_.data()) +
                              pos_,
                      remaining());
        pos_ = data_.size();
        return s;
    }

    /** Throw ProtocolError{Truncated} unless the payload is consumed. */
    void expectEnd(const char *what) const;

  private:
    void
    need(size_t n) const
    {
        if (remaining() < n)
            throw ProtocolError(ProtoError::Truncated,
                                "truncated frame payload");
    }

    std::span<const uint8_t> data_;
    size_t pos_ = 0;
};

// ---- frame assembly ------------------------------------------------

/**
 * Begin a frame in @p out: appends the placeholder length prefix plus
 * the opcode and returns the offset endFrame() backpatches.
 */
size_t beginFrame(std::vector<uint8_t> &out, Op op);

/** Finish the frame begun at @p at: fix up the length prefix. */
void endFrame(std::vector<uint8_t> &out, size_t at);

// Request encoders (append one complete frame to @p out).
void encodePredict(std::vector<uint8_t> &out, uint64_t tenant,
                   uint64_t pc);
void encodeTrain(std::vector<uint8_t> &out, uint64_t tenant,
                 const vm::TraceEvent &event);
void encodeBatch(std::vector<uint8_t> &out, uint64_t tenant,
                 vm::TraceSpan events);
void encodeStats(std::vector<uint8_t> &out);
void encodeTenantStats(std::vector<uint8_t> &out, uint64_t tenant);

// Reply encoders.
void encodePredictReply(std::vector<uint8_t> &out, bool valid,
                        uint64_t value);
void encodeTrainReply(std::vector<uint8_t> &out, bool predicted,
                      bool correct);
void encodeBatchReply(std::vector<uint8_t> &out, uint32_t count,
                      uint64_t predicted, uint64_t correct);
void encodeStatsReply(std::vector<uint8_t> &out,
                      const std::string &text);
void encodeError(std::vector<uint8_t> &out, ProtoError code,
                 const std::string &message);

/**
 * Per-tenant statistics on the wire: the full PredictionStats counter
 * set (overall + per category), the payload the byte-identity tests
 * and perfbench's serve workloads compare against a local replay.
 */
struct TenantStats
{
    uint64_t total = 0;
    uint64_t predicted = 0;
    uint64_t correct = 0;
    std::array<uint64_t, isa::numCategories> catTotal{};
    std::array<uint64_t, isa::numCategories> catPredicted{};
    std::array<uint64_t, isa::numCategories> catCorrect{};

    static TenantStats from(const core::PredictionStats &stats);

    friend bool operator==(const TenantStats &,
                           const TenantStats &) = default;
};

void encodeTenantStatsReply(std::vector<uint8_t> &out,
                            const std::optional<TenantStats> &stats);

// Payload decoders (the opcode byte is already consumed by the
// decoder; @p payload is everything after it). All throw
// ProtocolError on malformed payloads.

struct PredictRequest
{
    uint64_t tenant = 0;
    uint64_t pc = 0;
};

struct TrainRequest
{
    uint64_t tenant = 0;
    vm::TraceEvent event{};
};

PredictRequest decodePredict(std::span<const uint8_t> payload);
TrainRequest decodeTrain(std::span<const uint8_t> payload);

/** Decodes into @p events (cleared first); returns the tenant. */
uint64_t decodeBatch(std::span<const uint8_t> payload,
                     std::vector<vm::TraceEvent> &events);

uint64_t decodeTenantStatsRequest(std::span<const uint8_t> payload);

struct PredictReply
{
    bool valid = false;
    uint64_t value = 0;
};

struct TrainReply
{
    bool predicted = false;
    bool correct = false;
};

struct BatchReply
{
    uint32_t count = 0;
    uint64_t predicted = 0;
    uint64_t correct = 0;
};

PredictReply decodePredictReply(std::span<const uint8_t> payload);
TrainReply decodeTrainReply(std::span<const uint8_t> payload);
BatchReply decodeBatchReply(std::span<const uint8_t> payload);
std::string decodeStatsReply(std::span<const uint8_t> payload);
std::optional<TenantStats>
decodeTenantStatsReply(std::span<const uint8_t> payload);

/** Decoded ERROR frame. */
struct ErrorReply
{
    ProtoError code = ProtoError::Remote;
    std::string message;
};

ErrorReply decodeErrorReply(std::span<const uint8_t> payload);

// ---- incremental frame decoder -------------------------------------

/**
 * Incremental frame decoder over an arbitrary chunking of the byte
 * stream: feed() bytes as they arrive, next() yields complete frames.
 *
 * The returned payload view points into the internal buffer and stays
 * valid until the following feed() or next() call — the connection
 * loops process each frame before asking for the next one. Malformed
 * length prefixes throw from next(); after a throw the stream is
 * unrecoverable by design (framing is lost) and the connection must
 * close.
 */
class FrameDecoder
{
  public:
    explicit FrameDecoder(uint32_t maxFrameLength = kMaxFrameLength,
                          std::vector<uint8_t> buffer = {})
        : maxLength_(maxFrameLength), buf_(std::move(buffer))
    {
        buf_.clear();
    }

    void feed(const uint8_t *data, size_t n);

    struct Frame
    {
        Op op;
        std::span<const uint8_t> payload;
    };

    /**
     * The next complete frame, or nullopt when more bytes are needed.
     * @throws ProtocolError{BadLength|Oversized} on malformed prefixes.
     */
    std::optional<Frame> next();

    /** Bytes buffered but not yet consumed by a completed frame. */
    size_t pendingBytes() const { return buf_.size() - consumed_; }

    /** Reclaim the internal buffer (for pooling at connection close). */
    std::vector<uint8_t>
    takeBuffer()
    {
        consumed_ = 0;
        pending_ = 0;
        return std::move(buf_);
    }

  private:
    uint32_t maxLength_;
    std::vector<uint8_t> buf_;
    size_t consumed_ = 0;   ///< bytes of fully-delivered frames
    size_t pending_ = 0;    ///< bytes of the frame returned last
};

/** True when @p op is a valid request opcode. */
bool isRequestOp(uint8_t op);

} // namespace vp::net

#endif // VP_NET_PROTOCOL_HH
