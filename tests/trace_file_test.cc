/**
 * @file
 * Tests for the VPT2 value-trace file format: round trips, streaming
 * use as a VM sink, replay equivalence, and corruption handling.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "exp/suite.hh"
#include "masm/builder.hh"
#include "sim/driver.hh"
#include "synth/sequences.hh"
#include "vm/machine.hh"
#include "vm/trace_file.hh"

namespace {

using namespace vp;
using namespace vp::masm;
using namespace vp::masm::reg;
using vm::TraceEvent;

std::vector<TraceEvent>
sampleEvents(size_t n)
{
    synth::Rng rng(99);
    std::vector<TraceEvent> events;
    for (size_t i = 0; i < n; ++i) {
        TraceEvent event{};
        event.op = (i % 3 == 0) ? isa::Opcode::Add
                 : (i % 3 == 1) ? isa::Opcode::Ld
                                : isa::Opcode::Slli;
        event.cat = isa::opcodeCategory(event.op);
        event.pc = rng.range(500);
        event.value = rng.next() >> (rng.range(60));
        events.push_back(event);
    }
    return events;
}

/** Serialize events into an in-memory VPT2 stream. */
std::string
serialize(const std::vector<TraceEvent> &events, size_t blockEvents = 4096,
          bool compress = true)
{
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    vm::Vpt2Writer writer(buf, blockEvents, compress);
    for (const auto &event : events)
        writer.onValue(event);
    writer.finish();
    return buf.str();
}

/** Read a whole stream back through openTrace, end checks included. */
std::vector<TraceEvent>
deserialize(const std::string &data)
{
    std::stringstream buf(data, std::ios::in | std::ios::binary);
    const auto reader = vm::openTrace(buf);
    std::vector<TraceEvent> events;
    TraceEvent event{};
    while (reader->next(event))
        events.push_back(event);
    reader->expectEnd();
    return events;
}

void
expectSameEvents(const std::vector<TraceEvent> &got,
                 const std::vector<TraceEvent> &expected)
{
    ASSERT_EQ(got.size(), expected.size());
    for (size_t i = 0; i < expected.size(); ++i) {
        EXPECT_EQ(got[i].pc, expected[i].pc) << i;
        EXPECT_EQ(got[i].value, expected[i].value) << i;
        EXPECT_EQ(got[i].op, expected[i].op) << i;
        EXPECT_EQ(got[i].cat, expected[i].cat) << i;
    }
}

TEST(TraceFile, StreamRoundTrip)
{
    const auto events = sampleEvents(1000);
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    vm::Vpt2Writer writer(buf);
    for (const auto &event : events)
        writer.onValue(event);
    writer.finish();
    EXPECT_EQ(writer.eventCount(), events.size());

    buf.seekg(0);
    vm::Vpt2Reader reader(buf);
    TraceEvent event{};
    for (const auto &expected : events) {
        ASSERT_TRUE(reader.next(event));
        EXPECT_EQ(event.pc, expected.pc);
        EXPECT_EQ(event.value, expected.value);
        EXPECT_EQ(event.op, expected.op);
        EXPECT_EQ(event.cat, expected.cat);
    }
    EXPECT_FALSE(reader.next(event));
    reader.expectEnd();
    EXPECT_EQ(reader.eventCount(), events.size());
}

TEST(TraceFile, FileRoundTripHelpers)
{
    const auto events = sampleEvents(300);
    const std::string path = "test_roundtrip.vpt";
    vm::writeTraceFileVpt2(path, events);
    const auto back = vm::readTraceFile(path);
    std::remove(path.c_str());
    expectSameEvents(back, events);
}

TEST(TraceFile, RecordedVmTraceReplaysIdentically)
{
    // Run a real program once live and once through a trace file;
    // the fcm predictor must see exactly the same stream.
    ProgramBuilder b("rec");
    const auto loop = b.newLabel();
    b.li(t0, 200);
    b.bind(loop);
    b.mul(t1, t0, t0);
    b.andi(t2, t1, 255);
    b.addi(t0, t0, -1);
    b.bnez(t0, loop);
    b.halt();
    const auto prog = b.build();

    // Live run into a predictor bank.
    sim::PredictorBank live;
    live.add(vp::exp::makePredictor("fcm2"));
    sim::runProgram(prog, live);

    // Recorded run, replayed through the streaming batch source.
    std::stringstream buf(std::ios::in | std::ios::out |
                          std::ios::binary);
    vm::Vpt2Writer writer(buf, 64);
    vm::Machine machine;
    machine.setSink(&writer);
    ASSERT_TRUE(machine.run(prog).ok());
    writer.finish();

    buf.seekg(0);
    const auto reader = vm::openTrace(buf);
    vm::ReaderBatchSource source(*reader, 100);
    sim::PredictorBank replayed;
    replayed.add(vp::exp::makePredictor("fcm2"));
    const auto n = sim::replayTrace(source, replayed);
    reader->expectEnd();

    const auto &want = live.member(0).stats;
    const auto &got = replayed.member(0).stats;
    EXPECT_EQ(n, want.total());
    EXPECT_EQ(got.total(), want.total());
    EXPECT_EQ(got.predicted(), want.predicted());
    EXPECT_EQ(got.correct(), want.correct());
}

TEST(TraceFile, RejectsGarbage)
{
    std::stringstream junk("not a trace at all");
    EXPECT_THROW(vm::openTrace(junk), vm::TraceFileError);

    std::stringstream empty("");
    EXPECT_THROW(vm::openTrace(empty), vm::TraceFileError);

    // The retired flat VPT1 format is refused by name, not misread.
    std::string vpt1 = "VPT1";
    vpt1.append(12, '\0');
    std::stringstream old(vpt1);
    try {
        vm::openTrace(old);
        FAIL() << "VPT1 file opened";
    } catch (const vm::TraceFileError &error) {
        EXPECT_NE(std::string(error.what()).find("VPT1"),
                  std::string::npos);
    }
}

TEST(TraceFile, RejectsTruncatedBody)
{
    // Chop the tail off: every event decodes, the trailer does not.
    std::string data = serialize(sampleEvents(50));
    data.resize(data.size() - 4);
    std::stringstream cut(data, std::ios::in | std::ios::binary);
    vm::Vpt2Reader reader(cut);
    TraceEvent event{};
    EXPECT_THROW(
            {
                while (reader.next(event)) {
                }
            },
            vm::TraceFileError);
}

/** Bytes before the first event's tag: file header + block header. */
constexpr size_t kFirstTagOffset = 16 + 13;

TEST(TraceFile, RejectsNonPredictedOpcodeTags)
{
    // Handcraft a file whose single event claims to be a store.
    TraceEvent good{};
    good.op = isa::Opcode::Add;
    good.cat = isa::Category::AddSub;
    std::string data = serialize({good}, 4096, false);
    data[kFirstTagOffset] = static_cast<char>(isa::Opcode::Sd);
    std::stringstream bad(data, std::ios::in | std::ios::binary);
    vm::Vpt2Reader reader(bad);
    TraceEvent event{};
    EXPECT_THROW(reader.next(event), vm::TraceFileError);
}

TEST(TraceFile, MissingFileThrows)
{
    EXPECT_THROW(vm::readTraceFile("/nonexistent/x.vpt"),
                 vm::TraceFileError);
}

// ------------------------------------------- fuzz-ish round trips

TEST(TraceFileFuzz, BoundaryValuesRoundTrip)
{
    // The extremes the varint/zig-zag coding has to survive: value 0
    // and UINT64_MAX (the 10-byte LEB128 case), and PC deltas that
    // swing across the whole 64-bit range in both directions.
    std::vector<TraceEvent> events;
    const uint64_t pcs[] = {0, UINT64_MAX, 0, 1, UINT64_MAX - 1, 2,
                            0x8000000000000000ull, 0x7fffffffffffffffull};
    const uint64_t values[] = {0, UINT64_MAX, 1, UINT64_MAX - 1,
                               0x8000000000000000ull, 0, UINT64_MAX, 42};
    for (size_t i = 0; i < std::size(pcs); ++i) {
        TraceEvent event{};
        event.op = isa::Opcode::Add;
        event.cat = isa::opcodeCategory(event.op);
        event.pc = pcs[i];
        event.value = values[i];
        events.push_back(event);
    }
    expectSameEvents(deserialize(serialize(events)), events);
}

TEST(TraceFileFuzz, RandomizedStreamsRoundTrip)
{
    // Seeded (deterministic) random streams: full-range PCs and
    // values of every magnitude, occasionally forced to the 0 and
    // UINT64_MAX boundaries.
    for (const uint64_t seed : {1u, 7u, 42u, 1234u, 99999u}) {
        SCOPED_TRACE(seed);
        synth::Rng rng(seed);
        std::vector<TraceEvent> events;
        const size_t n = 200 + rng.range(800);
        for (size_t i = 0; i < n; ++i) {
            TraceEvent event{};
            event.op = (i % 2 == 0) ? isa::Opcode::Add
                                    : isa::Opcode::Ld;
            event.cat = isa::opcodeCategory(event.op);
            event.pc = rng.next() >> rng.range(64);
            event.value = rng.next() >> rng.range(64);
            switch (rng.range(16)) {
              case 0: event.pc = 0; break;
              case 1: event.pc = UINT64_MAX; break;
              case 2: event.value = 0; break;
              case 3: event.value = UINT64_MAX; break;
              default: break;
            }
            events.push_back(event);
        }
        expectSameEvents(deserialize(serialize(events)), events);
    }
}

TEST(TraceFileFuzz, TruncationAtEveryByteYieldsAPrefixThenThrows)
{
    // Chop a deflated single-block stream at every possible byte
    // boundary: the reader must never crash, never fabricate events,
    // and always end in a TraceFileError (a complete stream is the
    // only clean exit).
    synth::Rng rng(2026);
    std::vector<TraceEvent> events;
    for (size_t i = 0; i < 40; ++i) {
        TraceEvent event{};
        event.op = isa::Opcode::Sub;
        event.cat = isa::opcodeCategory(event.op);
        event.pc = rng.next() >> rng.range(64);
        event.value = rng.next() >> rng.range(64);
        events.push_back(event);
    }
    const std::string data = serialize(events);

    for (size_t cut = 0; cut < data.size(); ++cut) {
        SCOPED_TRACE(cut);
        std::stringstream buf(data.substr(0, cut),
                              std::ios::in | std::ios::binary);
        std::vector<TraceEvent> seen;
        bool threw = false;
        try {
            const auto reader = vm::openTrace(buf);
            TraceEvent event{};
            while (reader->next(event))
                seen.push_back(event);
            reader->expectEnd();
        } catch (const vm::TraceFileError &) {
            threw = true;
        }
        EXPECT_TRUE(threw);
        ASSERT_LE(seen.size(), events.size());
        for (size_t i = 0; i < seen.size(); ++i) {
            EXPECT_EQ(seen[i].pc, events[i].pc);
            EXPECT_EQ(seen[i].value, events[i].value);
        }
    }

    // The untruncated stream round-trips cleanly.
    EXPECT_EQ(deserialize(data).size(), events.size());
}

// ------------------------------------------------------- hardening

/** A sink that accepts writes but refuses to seek — a pipe. */
class PipeOutBuf : public std::stringbuf
{
  public:
    PipeOutBuf() : std::stringbuf(std::ios::out) {}

  protected:
    std::streampos
    seekoff(std::streamoff, std::ios_base::seekdir,
            std::ios_base::openmode) override
    {
        return std::streampos(std::streamoff(-1));
    }

    std::streampos
    seekpos(std::streampos, std::ios_base::openmode) override
    {
        return std::streampos(std::streamoff(-1));
    }
};

/** A source that yields bytes but refuses to seek or tell. */
class PipeInBuf : public std::stringbuf
{
  public:
    explicit PipeInBuf(const std::string &data)
        : std::stringbuf(data, std::ios::in)
    {
    }

  protected:
    std::streampos
    seekoff(std::streamoff, std::ios_base::seekdir,
            std::ios_base::openmode) override
    {
        return std::streampos(std::streamoff(-1));
    }

    std::streampos
    seekpos(std::streampos, std::ios_base::openmode) override
    {
        return std::streampos(std::streamoff(-1));
    }
};

/** Decode all of @p in, then check the end: throws on corruption. */
size_t
drain(std::istream &in)
{
    vm::Vpt2Reader reader(in);
    TraceEvent event{};
    size_t n = 0;
    while (reader.next(event))
        ++n;
    reader.expectEnd();
    return n;
}

TEST(TraceFileHardening, Vpt2FinishWorksOnNonSeekableSink)
{
    // VPT2 never seeks, so a pipe is a fine sink.
    PipeOutBuf pipe;
    std::ostream out(&pipe);
    const auto events = sampleEvents(100);
    vm::Vpt2Writer writer(out, 32);
    for (const auto &event : events)
        writer.onValue(event);
    writer.finish();
    EXPECT_EQ(writer.eventCount(), events.size());

    std::stringstream buf(pipe.str(), std::ios::in | std::ios::binary);
    EXPECT_EQ(drain(buf), events.size());
}

namespace varint {

void
append(std::string &out, uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>(0x80 | (value & 0x7f)));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

} // namespace varint

void
appendLe(std::string &out, uint64_t value, int bytes)
{
    for (int i = 0; i < bytes; ++i)
        out.push_back(static_cast<char>(value >> (8 * i)));
}

/** A VPT2 header plus one raw block of @p events holding @p payload. */
std::string
rawBlockTrace(const std::string &payload, uint32_t events)
{
    std::string data = "VPT2";
    data.append(12, '\0');          // flags, reserved
    appendLe(data, events, 4);
    appendLe(data, payload.size(), 4);      // rawBytes
    appendLe(data, payload.size(), 4);      // encBytes
    data.push_back(0);                      // codec: raw
    return data + payload;
}

TEST(TraceFileHardening, RejectsOverflowingFinalVarintByte)
{
    // A 10-byte varint's final byte sits at shift 63: only its lowest
    // bit fits in a uint64. 0x03 carries a second significant bit that
    // a naive decoder silently shifts out, decoding a wrong value.
    std::string payload(1, static_cast<char>(isa::Opcode::Add));
    payload.append(9, static_cast<char>(0xff));
    payload.push_back(0x03);        // overflowing final pc-delta byte
    varint::append(payload, 0);     // value

    std::stringstream buf(rawBlockTrace(payload, 1),
                          std::ios::in | std::ios::binary);
    vm::Vpt2Reader reader(buf);
    TraceEvent event{};
    try {
        reader.next(event);
        FAIL() << "overflowing varint decoded without error";
    } catch (const vm::TraceFileError &error) {
        EXPECT_NE(std::string(error.what()).find("varint overflow"),
                  std::string::npos);
    }

    // The legitimate 10-byte encoding (final byte 0x01 = UINT64_MAX)
    // still decodes — only genuine overflow is rejected.
    std::string good(1, static_cast<char>(isa::Opcode::Add));
    varint::append(good, 0);                    // pc-delta 0
    good.append(9, static_cast<char>(0xff));
    good.push_back(0x01);                       // value = UINT64_MAX
    std::stringstream ok(rawBlockTrace(good, 1),
                         std::ios::in | std::ios::binary);
    vm::Vpt2Reader ok_reader(ok);
    ASSERT_TRUE(ok_reader.next(event));
    EXPECT_EQ(event.value, UINT64_MAX);
}

/** Overwrite the @p bytes-wide little-endian field at @p at. */
void
patchLe(std::string &data, size_t at, uint64_t value, int bytes)
{
    std::string field;
    appendLe(field, value, bytes);
    data.replace(at, static_cast<size_t>(bytes), field);
}

uint64_t
readLe(const std::string &data, size_t at, int bytes)
{
    uint64_t value = 0;
    for (int i = 0; i < bytes; ++i)
        value |= static_cast<uint64_t>(static_cast<uint8_t>(data[at + i]))
                 << (8 * i);
    return value;
}

/** Trailer layout: u64 indexOffset | u64 totalEvents | "VP2X". */
constexpr size_t kTrailerBytes = 8 + 8 + 4;

TEST(TraceFileHardening, AbsurdHeaderCountDoesNotPreallocate)
{
    // A forged trailer claiming 2^60 events must surface as a
    // TraceFileError, not a bad_alloc from reserve(2^60).
    std::string data = serialize(sampleEvents(10));
    patchLe(data, data.size() - kTrailerBytes + 8, uint64_t(1) << 60, 8);
    const std::string path = "test_absurd_count.vpt";
    {
        std::ofstream out(path, std::ios::binary);
        out << data;
    }
    EXPECT_THROW(vm::readTraceFile(path), vm::TraceFileError);
    std::remove(path.c_str());
}

TEST(TraceFileHardening, TrailingBytesAfterPromisedCountAreSurfaced)
{
    const auto events = sampleEvents(25);
    std::stringstream buf(serialize(events) + "junk after the trailer",
                          std::ios::in | std::ios::binary);
    const auto reader = vm::openTrace(buf);
    TraceEvent event{};
    size_t n = 0;
    while (reader->next(event))
        ++n;
    EXPECT_EQ(n, events.size());
    EXPECT_THROW(reader->expectEnd(), vm::TraceFileError);

    // A clean stream passes the same check.
    EXPECT_EQ(deserialize(serialize(events)).size(), events.size());
}

TEST(TraceFileHardening, CorruptIndexFieldsAreRejectedOnAnyStream)
{
    // Index entry: u64 offset | u64 firstEvent | u32 events. Corrupt
    // each field of the second entry, and the trailer's index offset;
    // a file stream and a pipe must both reject every one.
    const std::string good = serialize(sampleEvents(300), 64);
    const uint64_t index_offset =
            readLe(good, good.size() - kTrailerBytes, 8);
    const size_t entry = static_cast<size_t>(index_offset) + 8 + 20;
    const struct
    {
        const char *name;
        size_t at;
        int bytes;
    } fields[] = {
        {"entry offset", entry, 8},
        {"entry firstEvent", entry + 8, 8},
        {"entry events", entry + 16, 4},
        {"trailer index offset", good.size() - kTrailerBytes, 8},
    };

    const std::string path = "test_corrupt_index.vpt";
    for (const auto &field : fields) {
        SCOPED_TRACE(field.name);
        std::string bad = good;
        patchLe(bad, field.at, readLe(good, field.at, field.bytes) + 1,
                field.bytes);
        {
            std::ofstream out(path, std::ios::binary);
            out << bad;
        }
        std::ifstream file(path, std::ios::binary);
        EXPECT_THROW(drain(file), vm::TraceFileError);

        PipeInBuf pipe(bad);
        std::istream in(&pipe);
        EXPECT_THROW(drain(in), vm::TraceFileError);
    }
    std::remove(path.c_str());

    // The unmodified file passes both ways.
    PipeInBuf pipe(good);
    std::istream in(&pipe);
    EXPECT_EQ(drain(in), 300u);
}

TEST(TraceCacheHardening, TempFilesCleanedUpWhenRenameFails)
{
    namespace fs = std::filesystem;
    const fs::path dir =
            fs::temp_directory_path() / "vp-tmpclean-test";
    fs::remove_all(dir);
    fs::create_directories(dir);

    exp::SuiteOptions options;
    options.predictors = {"l"};
    options.traceReplay = true;
    options.traceCacheDir = dir.string();
    options.config.scale = 5;

    // Plant a directory where the recording should land: the final
    // rename must fail, and the error path must not leave the
    // .vpt.tmp.<pid>/.meta.tmp.<pid> partials behind.
    fs::create_directories(dir / "compress-ref-ref-s5.vpt");
    EXPECT_THROW(exp::runBenchmark("compress", options),
                 std::exception);

    for (const auto &entry : fs::directory_iterator(dir)) {
        EXPECT_EQ(entry.path().filename().string().find(".tmp."),
                  std::string::npos)
                << entry.path();
    }
    fs::remove_all(dir);
}

TEST(TraceCacheHardening, Vpt1CacheFileFailsNamingTheFile)
{
    namespace fs = std::filesystem;
    const fs::path dir = fs::temp_directory_path() / "vp-vpt1-cache-test";
    fs::remove_all(dir);

    exp::SuiteOptions options;
    options.predictors = {"l"};
    options.traceReplay = true;
    options.traceCacheDir = dir.string();
    options.config.scale = 5;
    exp::runBenchmark("compress", options);     // records the cache

    // An old recording in a shared cache: VPT1 magic, valid sidecar.
    const fs::path vpt = dir / "compress-ref-ref-s5.vpt";
    ASSERT_TRUE(fs::exists(vpt));
    {
        std::ofstream out(vpt, std::ios::binary | std::ios::trunc);
        out << "VPT1" << std::string(12, '\0');
    }
    try {
        exp::runBenchmark("compress", options);
        FAIL() << "a VPT1 cache file replayed";
    } catch (const std::runtime_error &error) {
        const std::string what = error.what();
        EXPECT_NE(what.find(vpt.string()), std::string::npos) << what;
        EXPECT_NE(what.find("VPT1"), std::string::npos) << what;
    }
    fs::remove_all(dir);
}

// ------------------------------------------------------ VPT2 format

TEST(Vpt2, RoundTripsAcrossBlockSizesAndCodecs)
{
    const auto events = sampleEvents(1000);
    for (const size_t block : {1u, 7u, 64u, 1000u, 4096u}) {
        for (const bool compress : {false, true}) {
            SCOPED_TRACE(testing::Message()
                         << "block " << block << " compress "
                         << compress);
            expectSameEvents(deserialize(serialize(events, block,
                                                   compress)),
                             events);
        }
    }
}

TEST(Vpt2, EmptyTraceRoundTrips)
{
    EXPECT_TRUE(deserialize(serialize({}, 64)).empty());
}

TEST(Vpt2, BoundaryValuesRoundTrip)
{
    std::vector<TraceEvent> events;
    const uint64_t pcs[] = {0, UINT64_MAX, 0, 1, UINT64_MAX - 1, 2,
                            0x8000000000000000ull,
                            0x7fffffffffffffffull};
    const uint64_t values[] = {0, UINT64_MAX, 1, UINT64_MAX - 1,
                               0x8000000000000000ull, 0, UINT64_MAX,
                               42};
    for (size_t i = 0; i < std::size(pcs); ++i) {
        TraceEvent event{};
        event.op = isa::Opcode::Add;
        event.cat = isa::opcodeCategory(event.op);
        event.pc = pcs[i];
        event.value = values[i];
        events.push_back(event);
    }
    // Block size 3 forces the boundary values across block breaks,
    // exercising the per-block lastPc restart.
    expectSameEvents(deserialize(serialize(events, 3)), events);
}

TEST(Vpt2, RandomizedStreamsRoundTrip)
{
    for (const uint64_t seed : {1u, 7u, 42u, 1234u, 99999u}) {
        SCOPED_TRACE(seed);
        synth::Rng rng(seed);
        std::vector<TraceEvent> events;
        const size_t n = 200 + rng.range(800);
        for (size_t i = 0; i < n; ++i) {
            TraceEvent event{};
            event.op = (i % 2 == 0) ? isa::Opcode::Add
                                    : isa::Opcode::Ld;
            event.cat = isa::opcodeCategory(event.op);
            event.pc = rng.next() >> rng.range(64);
            event.value = rng.next() >> rng.range(64);
            events.push_back(event);
        }
        expectSameEvents(deserialize(serialize(events, 100)), events);
    }
}

TEST(Vpt2, StreamsSequentiallyWithoutSeeking)
{
    const auto events = sampleEvents(300);
    PipeInBuf pipe(serialize(events, 32));
    std::istream in(&pipe);
    vm::Vpt2Reader reader(in);
    EXPECT_EQ(reader.eventCount(), 0u);     // trailer not read yet

    std::vector<TraceEvent> back;
    TraceEvent event{};
    while (reader.next(event))
        back.push_back(event);
    reader.expectEnd();
    expectSameEvents(back, events);
    EXPECT_EQ(reader.eventCount(), events.size());
}

TEST(Vpt2, NonSeekableStreamSurfacesTrailingGarbage)
{
    PipeInBuf pipe(serialize(sampleEvents(100), 32) + "zzz");
    std::istream in(&pipe);
    EXPECT_THROW(drain(in), vm::TraceFileError);
}

TEST(Vpt2Fuzz, TruncationAtEveryByteNeverFabricatesEvents)
{
    synth::Rng rng(2027);
    std::vector<TraceEvent> events;
    for (size_t i = 0; i < 120; ++i) {
        TraceEvent event{};
        event.op = isa::Opcode::Sub;
        event.cat = isa::opcodeCategory(event.op);
        event.pc = rng.next() >> rng.range(64);
        event.value = rng.next() >> rng.range(64);
        events.push_back(event);
    }
    const std::string data = serialize(events, 16);

    // Decoded events must be a prefix, and the missing block, endmark,
    // index or trailer bytes must surface as an error — identically
    // on a seekable stream and a pipe.
    const auto check = [&](std::istream &in) {
        std::vector<TraceEvent> seen;
        bool threw = false;
        try {
            vm::Vpt2Reader reader(in);
            TraceEvent event{};
            while (reader.next(event))
                seen.push_back(event);
            reader.expectEnd();
        } catch (const vm::TraceFileError &) {
            threw = true;
        }
        EXPECT_TRUE(threw);
        ASSERT_LE(seen.size(), events.size());
        expectSameEvents(seen,
                         {events.begin(),
                          events.begin() + static_cast<long>(seen.size())});
    };
    for (size_t cut = 0; cut < data.size(); ++cut) {
        SCOPED_TRACE(cut);
        std::stringstream buf(data.substr(0, cut),
                              std::ios::in | std::ios::binary);
        check(buf);
        PipeInBuf pipe(data.substr(0, cut));
        std::istream in(&pipe);
        check(in);
    }

    expectSameEvents(deserialize(data), events);
}

TEST(Vpt2, FileHelpersRoundTrip)
{
    const auto events = sampleEvents(500);
    const std::string path = "test_roundtrip2.vpt";
    vm::writeTraceFileVpt2(path, events, 64, false);
    const auto back = vm::readTraceFile(path);
    std::remove(path.c_str());
    expectSameEvents(back, events);
}

TEST(Vpt2, DeflateShrinksWorkloadTracesBelowRawBlocks)
{
    if (!vm::traceFileZlibAvailable())
        GTEST_SKIP() << "built without zlib; blocks are stored raw";

    // One VM execution per workload, both writers fed from the same
    // fan-out — the deflate pass must pay for itself on every trace.
    for (const auto &info : workloads::allWorkloads()) {
        SCOPED_TRACE(info.name);
        workloads::WorkloadConfig config;
        config.scale = 5;
        const auto prog = info.build(config);

        std::stringstream raw(std::ios::in | std::ios::out |
                              std::ios::binary);
        std::stringstream deflated(std::ios::in | std::ios::out |
                                   std::ios::binary);
        vm::Vpt2Writer raw_writer(raw, 4096, false);
        vm::Vpt2Writer deflated_writer(deflated);
        vm::FanoutSink fan;
        fan.add(&raw_writer);
        fan.add(&deflated_writer);
        vm::Machine machine;
        machine.setSink(&fan);
        ASSERT_TRUE(machine.run(prog).ok());
        raw_writer.finish();
        deflated_writer.finish();

        EXPECT_LT(deflated.str().size(), raw.str().size())
                << "deflated (" << deflated.str().size()
                << " bytes) not smaller than raw ("
                << raw.str().size() << " bytes)";
    }
}

} // anonymous namespace
