#include "vm/trace_file.hh"

#include <algorithm>
#include <cstring>
#include <fstream>
#include <istream>
#include <ostream>

#if VP_HAVE_ZLIB
#include <zlib.h>
#endif

namespace vp::vm {

namespace {

constexpr char magic1[4] = {'V', 'P', 'T', '1'};
constexpr char magic2[4] = {'V', 'P', 'T', '2'};
constexpr char trailerMagic[4] = {'V', 'P', '2', 'X'};

constexpr uint8_t codecRaw = 0;
constexpr uint8_t codecZlib = 1;

/** u32 events | u32 rawBytes | u32 encBytes | u8 codec. */
constexpr size_t blockHeaderBytes = 4 + 4 + 4 + 1;
constexpr size_t headerBytes = 16;

void
writeU32(std::ostream &out, uint32_t value)
{
    char bytes[4];
    for (int i = 0; i < 4; ++i)
        bytes[i] = static_cast<char>(value >> (8 * i));
    out.write(bytes, 4);
}

void
writeU64(std::ostream &out, uint64_t value)
{
    char bytes[8];
    for (int i = 0; i < 8; ++i)
        bytes[i] = static_cast<char>(value >> (8 * i));
    out.write(bytes, 8);
}

uint32_t
readU32(std::istream &in, const char *what = "trace header")
{
    char bytes[4];
    in.read(bytes, 4);
    if (!in)
        throw TraceFileError(std::string("truncated ") + what);
    uint32_t value = 0;
    for (int i = 0; i < 4; ++i)
        value |= static_cast<uint32_t>(
                         static_cast<uint8_t>(bytes[i]))
                << (8 * i);
    return value;
}

uint64_t
readU64(std::istream &in, const char *what = "trace header")
{
    char bytes[8];
    in.read(bytes, 8);
    if (!in)
        throw TraceFileError(std::string("truncated ") + what);
    uint64_t value = 0;
    for (int i = 0; i < 8; ++i)
        value |= static_cast<uint64_t>(
                         static_cast<uint8_t>(bytes[i]))
                << (8 * i);
    return value;
}

void
appendVarint(std::string &out, uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>(0x80 | (value & 0x7f)));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

/** Decode one LEB128 varint from a block payload. */
const uint8_t *
readVarint(const uint8_t *p, const uint8_t *end, uint64_t &value)
{
    value = 0;
    int shift = 0;
    while (true) {
        if (p == end)
            throw TraceFileError("truncated varint");
        const uint8_t byte = *p++;
        // The 10th byte sits at shift 63: only its lowest bit still
        // fits in a uint64. Any higher payload bit would be silently
        // shifted out, decoding to a wrong value — reject it.
        if (shift == 63 && (byte & 0x7e) != 0)
            throw TraceFileError("varint overflow");
        value |= static_cast<uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return p;
        shift += 7;
        if (shift >= 64)
            throw TraceFileError("varint overflow");
    }
}

uint64_t
zigZag(int64_t value)
{
    return (static_cast<uint64_t>(value) << 1) ^
           static_cast<uint64_t>(value >> 63);
}

int64_t
unZigZag(uint64_t value)
{
    return static_cast<int64_t>(value >> 1) ^
           -static_cast<int64_t>(value & 1);
}

void
validateTag(int tag, TraceEvent &event)
{
    if (tag < 0 || tag >= isa::numOpcodes)
        throw TraceFileError("bad opcode tag in trace");
    event.op = static_cast<isa::Opcode>(tag);
    event.cat = isa::opcodeCategory(event.op);
    if (!isa::isPredictedCategory(event.cat))
        throw TraceFileError("non-predicted opcode in trace");
}

} // anonymous namespace

bool
traceFileZlibAvailable()
{
#if VP_HAVE_ZLIB
    return true;
#else
    return false;
#endif
}

// --------------------------------------------------------- Vpt2Writer

Vpt2Writer::Vpt2Writer(std::ostream &out, size_t blockEvents,
                       bool compress)
    : out_(out), blockEvents_(std::max<size_t>(1, blockEvents)),
      compress_(compress)
{
    out_.write(magic2, 4);
    writeU32(out_, 0);              // flags
    writeU64(out_, 0);              // reserved (count lives in trailer)
    offset_ = headerBytes;
}

void
Vpt2Writer::onValue(const TraceEvent &event)
{
    raw_.push_back(static_cast<char>(event.op));
    appendVarint(raw_, zigZag(static_cast<int64_t>(event.pc - lastPc_)));
    appendVarint(raw_, event.value);
    lastPc_ = event.pc;
    ++count_;
    ++blockN_;
    if (blockN_ >= blockEvents_)
        flushBlock();
}

void
Vpt2Writer::flushBlock()
{
    if (blockN_ == 0)
        return;

    uint8_t codec = codecRaw;
    const std::string *payload = &raw_;
    std::string deflated;
#if VP_HAVE_ZLIB
    if (compress_) {
        uLongf bound = compressBound(static_cast<uLong>(raw_.size()));
        deflated.resize(bound);
        const int rc = compress2(
                reinterpret_cast<Bytef *>(deflated.data()), &bound,
                reinterpret_cast<const Bytef *>(raw_.data()),
                static_cast<uLong>(raw_.size()), Z_DEFAULT_COMPRESSION);
        if (rc == Z_OK && bound < raw_.size()) {
            deflated.resize(bound);
            payload = &deflated;
            codec = codecZlib;
        }
    }
#endif

    index_.push_back(IndexEntry{offset_, count_ - blockN_, blockN_});
    writeU32(out_, blockN_);
    writeU32(out_, static_cast<uint32_t>(raw_.size()));
    writeU32(out_, static_cast<uint32_t>(payload->size()));
    out_.put(static_cast<char>(codec));
    out_.write(payload->data(),
               static_cast<std::streamsize>(payload->size()));
    offset_ += blockHeaderBytes + payload->size();

    raw_.clear();
    blockN_ = 0;
    lastPc_ = 0;        // every block is self-contained
}

void
Vpt2Writer::finish()
{
    if (finished_)
        return;
    finished_ = true;
    flushBlock();

    writeU32(out_, 0);              // end-of-blocks marker
    offset_ += 4;
    const uint64_t index_offset = offset_;
    writeU64(out_, index_.size());
    for (const auto &entry : index_) {
        writeU64(out_, entry.offset);
        writeU64(out_, entry.firstEvent);
        writeU32(out_, entry.events);
    }
    writeU64(out_, index_offset);
    writeU64(out_, count_);
    out_.write(trailerMagic, 4);
    out_.flush();
    if (!out_)
        throw TraceFileError("failed writing VPT2 index trailer");
}

// --------------------------------------------------------- Vpt2Reader

Vpt2Reader::Vpt2Reader(std::istream &in) : in_(in)
{
    char magic[4];
    in_.read(magic, 4);
    if (!in_)
        throw TraceFileError("truncated trace header");
    if (std::memcmp(magic, magic1, 4) == 0) {
        throw TraceFileError(
                "VPT1 trace: that format is no longer read; "
                "re-record the trace");
    }
    if (std::memcmp(magic, magic2, 4) != 0)
        throw TraceFileError("not a trace file (unknown magic)");
    readU32(in_);                   // flags
    readU64(in_);                   // reserved
    offset_ = headerBytes;
}

/**
 * Read and decode the next block; returns false at the end marker.
 * Leaves p_/end_ spanning the decoded payload.
 */
bool
Vpt2Reader::openBlock()
{
    if (ended_)
        return false;
    const uint64_t block_offset = offset_;
    const uint32_t events = readU32(in_, "VPT2 block header");
    if (events == 0) {
        offset_ += 4;
        finishStream();
        return false;
    }
    const uint32_t raw_bytes = readU32(in_, "VPT2 block header");
    const uint32_t enc_bytes = readU32(in_, "VPT2 block header");
    const int codec = in_.get();
    if (codec == std::istream::traits_type::eof())
        throw TraceFileError("truncated VPT2 block header");
    // Every event takes at least 3 payload bytes (tag + two varints),
    // so a header promising more events than the payload can hold is
    // corrupt — reject before allocating.
    if (raw_bytes < 3ull * events)
        throw TraceFileError("VPT2 block smaller than its event count");
    if (codec == codecRaw && enc_bytes != raw_bytes)
        throw TraceFileError("VPT2 raw block size mismatch");

    enc_.resize(enc_bytes);
    in_.read(enc_.data(), static_cast<std::streamsize>(enc_bytes));
    if (!in_)
        throw TraceFileError("truncated VPT2 block payload");

    if (codec == codecRaw) {
        rawBuf_.swap(enc_);
    } else if (codec == codecZlib) {
#if VP_HAVE_ZLIB
        rawBuf_.resize(raw_bytes);
        uLongf got = raw_bytes;
        const int rc = uncompress(
                reinterpret_cast<Bytef *>(rawBuf_.data()), &got,
                reinterpret_cast<const Bytef *>(enc_.data()),
                static_cast<uLong>(enc_.size()));
        if (rc != Z_OK || got != raw_bytes)
            throw TraceFileError("corrupt deflated VPT2 block");
#else
        throw TraceFileError(
                "zlib-compressed VPT2 block, but built without zlib");
#endif
    } else {
        throw TraceFileError("unknown VPT2 block codec");
    }

    p_ = reinterpret_cast<const uint8_t *>(rawBuf_.data());
    end_ = p_ + raw_bytes;
    blockRemaining_ = events;
    lastPc_ = 0;
    offset_ += blockHeaderBytes + enc_bytes;
    blocks_.push_back(BlockSeen{block_offset, pos_, events});
    ++io_.blocksRead;
    io_.rawBytes += raw_bytes;
    io_.encBytes += enc_bytes;
    io_.deflatedBlocks += codec == codecZlib;
    return true;
}

/**
 * The end marker was just consumed: read the index and trailer that
 * follow and verify every field against what was actually decoded, so
 * a corrupt index, truncation and a wrong count surface on any stream.
 */
void
Vpt2Reader::finishStream()
{
    ended_ = true;
    const uint64_t index_offset = offset_;
    const uint64_t blocks = readU64(in_, "VPT2 index");
    if (blocks != blocks_.size())
        throw TraceFileError("VPT2 index disagrees with block stream");
    for (const BlockSeen &seen : blocks_) {
        const uint64_t offset = readU64(in_, "VPT2 index");
        const uint64_t first = readU64(in_, "VPT2 index");
        const uint32_t events = readU32(in_, "VPT2 index");
        if (offset != seen.offset || first != seen.firstEvent ||
            events != seen.events) {
            throw TraceFileError("corrupt VPT2 index entry");
        }
    }
    if (readU64(in_, "VPT2 trailer") != index_offset)
        throw TraceFileError("VPT2 trailer index offset is wrong");
    const uint64_t total = readU64(in_, "VPT2 trailer");
    char tm[4];
    in_.read(tm, 4);
    if (!in_ || std::memcmp(tm, trailerMagic, 4) != 0)
        throw TraceFileError("bad VPT2 trailer magic");
    if (total != pos_)
        throw TraceFileError("VPT2 trailer count disagrees with stream");
    total_ = total;
}

void
Vpt2Reader::decodeEvent(TraceEvent &event)
{
    if (p_ == end_)
        throw TraceFileError("VPT2 block payload underrun");
    const int tag = *p_++;
    validateTag(tag, event);
    uint64_t coded = 0;
    p_ = readVarint(p_, end_, coded);
    event.pc = lastPc_ + static_cast<uint64_t>(unZigZag(coded));
    p_ = readVarint(p_, end_, event.value);
    lastPc_ = event.pc;
    --blockRemaining_;
    ++pos_;
    if (blockRemaining_ == 0 && p_ != end_)
        throw TraceFileError("VPT2 block payload overrun");
}

bool
Vpt2Reader::next(TraceEvent &event)
{
    if (blockRemaining_ == 0 && !openBlock())
        return false;
    decodeEvent(event);
    return true;
}

size_t
Vpt2Reader::readBatch(TraceEvent *out, size_t max)
{
    size_t n = 0;
    while (n < max && next(out[n]))
        ++n;
    return n;
}

void
Vpt2Reader::expectEnd()
{
    TraceEvent scratch{};
    if (next(scratch))
        throw TraceFileError("trace not fully consumed");
    if (in_.peek() != std::istream::traits_type::eof())
        throw TraceFileError("trailing bytes after the VPT2 trailer");
}

std::unique_ptr<Vpt2Reader>
openTrace(std::istream &in)
{
    return std::make_unique<Vpt2Reader>(in);
}

// ------------------------------------------------------- conveniences

void
writeTraceFileVpt2(const std::string &path,
                   const std::vector<TraceEvent> &events,
                   size_t blockEvents, bool compress)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        throw TraceFileError("cannot open " + path + " for writing");
    Vpt2Writer writer(out, blockEvents, compress);
    for (const auto &event : events)
        writer.onValue(event);
    writer.finish();
}

std::vector<TraceEvent>
readTraceFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw TraceFileError("cannot open " + path);
    Vpt2Reader reader(in);
    // No reserve: the event count is untrusted trailer data, only
    // known (and checked) once the stream has been decoded.
    std::vector<TraceEvent> events;
    TraceEvent event{};
    while (reader.next(event))
        events.push_back(event);
    reader.expectEnd();
    return events;
}

} // namespace vp::vm
