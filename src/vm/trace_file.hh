/**
 * @file
 * The value-trace file format: record a trace once, replay it into
 * predictor banks many times.
 *
 * The original study was trace-driven (SimpleScalar traces); this is
 * the equivalent facility. VPT2 is a blocked, compressed stream of
 * delta + varint coded events:
 *
 *   header:  magic "VPT2" | u32 flags | u64 reserved
 *   blocks:  u32 events (>0) | u32 rawBytes | u32 encBytes
 *            | u8 codec (0 raw, 1 zlib deflate) | encBytes payload
 *            — per event: u8 tag (opcode) | varint pc-delta (zig-zag)
 *            | varint value (raw LEB128); the pc-delta chain restarts
 *            (lastPc = 0) at every block boundary.
 *   endmark: u32 0 (a real block never holds zero events)
 *   index:   u64 blockCount
 *            | per block: u64 fileOffset | u64 firstEvent | u32 events
 *   trailer: u64 indexOffset | u64 totalEvents | magic "VP2X"
 *
 * The writer never seeks (counts live in the trailer), so VPT2 can be
 * written to a pipe. The reader is sequential too: it decodes block by
 * block and, at the end marker, checks the index and trailer against
 * the blocks it actually read — so a pipe and a file are validated
 * identically.
 *
 * PC deltas and LEB128 exploit trace locality, and the per-block
 * deflate pass shrinks typical traces to a few bytes per event.
 */

#ifndef VP_VM_TRACE_FILE_HH
#define VP_VM_TRACE_FILE_HH

#include <cstdint>
#include <iosfwd>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "vm/trace.hh"

namespace vp::vm {

/** Error thrown on malformed trace files. */
struct TraceFileError : std::runtime_error
{
    explicit TraceFileError(const std::string &message)
        : std::runtime_error(message)
    {}
};

/** True when this build can deflate/inflate VPT2 blocks (zlib). */
bool traceFileZlibAvailable();

/**
 * Streaming VPT2 trace writer, usable directly as the VM's TraceSink:
 * fixed-size self-contained blocks, an index footer, optional
 * per-block deflate. Never seeks, so any ostream (including a pipe)
 * works as the sink.
 *
 * @code
 *   std::ofstream out("gcc.vpt", std::ios::binary);
 *   Vpt2Writer writer(out);
 *   machine.setSink(&writer);
 *   machine.run(prog);
 *   writer.finish();             // end marker, index, trailer
 * @endcode
 */
class Vpt2Writer : public TraceSink
{
  public:
    /**
     * @param blockEvents events per block; the default matches the
     *        replay batch size.
     * @param compress deflate blocks when zlib is available and the
     *        deflated form is smaller (blocks record their own codec,
     *        so mixed files are fine).
     */
    explicit Vpt2Writer(std::ostream &out, size_t blockEvents = 4096,
                        bool compress = true);

    void onValue(const TraceEvent &event) override;

    /**
     * Flush the final partial block, then write the end marker, the
     * index and the trailer. Must be called once.
     * @throws TraceFileError when the sink rejects the writes.
     */
    void finish();

    uint64_t eventCount() const { return count_; }

  private:
    void flushBlock();

    struct IndexEntry
    {
        uint64_t offset;        ///< file offset of the block header
        uint64_t firstEvent;    ///< global index of its first event
        uint32_t events;        ///< events in the block
    };

    std::ostream &out_;
    size_t blockEvents_;
    bool compress_;
    std::string raw_;           ///< current block payload, uncompressed
    uint32_t blockN_ = 0;       ///< events in the current block
    uint64_t lastPc_ = 0;       ///< restarts at every block boundary
    uint64_t count_ = 0;
    uint64_t offset_ = 0;       ///< running file offset (no tellp)
    std::vector<IndexEntry> index_;
    bool finished_ = false;
};

/**
 * Cumulative I/O work a reader has performed, for the harness's trace
 * I/O telemetry (vpexp --stats / the per-cell counters block). The
 * deflate ratio is encBytes / rawBytes over the blocks read.
 */
struct TraceIoStats
{
    uint64_t blocksRead = 0;        ///< blocks decoded
    uint64_t rawBytes = 0;          ///< decoded payload bytes
    uint64_t encBytes = 0;          ///< on-disk payload bytes
    uint64_t deflatedBlocks = 0;    ///< blocksRead that were deflated
};

/**
 * Sequential VPT2 trace reader. Works on any istream, seekable or
 * not; the index and trailer are verified against the decoded blocks
 * when the reader reaches them.
 */
class Vpt2Reader
{
  public:
    /** Reads and checks the header.
     *  @throws TraceFileError on a missing or foreign magic. */
    explicit Vpt2Reader(std::istream &in);

    /**
     * Number of events the trailer promises: 0 until the reader has
     * reached the end of the trace (the trailer comes last).
     */
    uint64_t eventCount() const { return total_; }

    /**
     * Read the next event.
     *
     * @return false at end of trace.
     * @throws TraceFileError on corruption.
     */
    bool next(TraceEvent &event);

    /**
     * Decode up to @p max events into @p out; returns the number
     * decoded, 0 at end of trace.
     */
    size_t readBatch(TraceEvent *out, size_t max);

    /**
     * Verify the stream ends exactly where the format says it should:
     * every event consumed, index and trailer consistent, and no
     * trailing bytes.
     *
     * @throws TraceFileError on trailing garbage or a short trace.
     */
    void expectEnd();

    /** Blocks decoded, payload bytes, deflated-block count. */
    TraceIoStats ioStats() const { return io_; }

  private:
    struct BlockSeen
    {
        uint64_t offset;
        uint64_t firstEvent;
        uint32_t events;
    };

    bool openBlock();
    void finishStream();
    void decodeEvent(TraceEvent &event);

    std::istream &in_;
    bool ended_ = false;
    uint64_t total_ = 0;        ///< trailer count (0 until known)
    uint64_t pos_ = 0;          ///< global index of the next event
    uint64_t offset_ = 0;       ///< file offset of the next read (no tellg)
    uint64_t lastPc_ = 0;       ///< restarts per block
    std::vector<BlockSeen> blocks_;
    TraceIoStats io_;

    std::string enc_;           ///< encoded (possibly deflated) block
    std::string rawBuf_;        ///< decoded block payload
    const uint8_t *p_ = nullptr;
    const uint8_t *end_ = nullptr;
    uint32_t blockRemaining_ = 0;
};

/**
 * Open a trace for reading. A VPT1 file (the retired flat format)
 * fails with a TraceFileError saying so.
 */
std::unique_ptr<Vpt2Reader> openTrace(std::istream &in);

/**
 * TraceBatchSource streaming from a Vpt2Reader through one reused
 * span buffer: long traces replay in bounded memory instead of being
 * materialised by readTraceFile. A span may cross the file's
 * compressed blocks (Vpt2Reader::readBatch fills it from as many as
 * it takes).
 */
class ReaderBatchSource : public TraceBatchSource
{
  public:
    explicit ReaderBatchSource(Vpt2Reader &reader,
                               size_t batch = kReplaySpan)
        : reader_(reader), buffer_(batch == 0 ? 1 : batch)
    {
    }

    TraceSpan
    nextBatch() override
    {
        const size_t n = reader_.readBatch(buffer_.data(), buffer_.size());
        return TraceSpan(buffer_.data(), n);
    }

  private:
    Vpt2Reader &reader_;
    std::vector<TraceEvent> buffer_;
};

/** Convenience: record a whole event vector to a VPT2 file. */
void writeTraceFileVpt2(const std::string &path,
                        const std::vector<TraceEvent> &events,
                        size_t blockEvents = 4096, bool compress = true);

/** Convenience: load a whole trace file into memory. */
std::vector<TraceEvent> readTraceFile(const std::string &path);

} // namespace vp::vm

#endif // VP_VM_TRACE_FILE_HH
