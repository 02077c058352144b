/**
 * @file
 * Resident-memory guards for bounded tables. Building bounded
 * predictors over 1M-entry tables must not write the tables' pages:
 * the arrays come zero-filled from HugePageAllocator and their entry
 * types skip value-initialisation (core/hugepage.hh), so a freshly
 * built bank is resident only in its bookkeeping. Writing every page,
 * as a value-initialising resize() does, makes these three tables
 * about 290 MB resident. And a sparsely filled table must make
 * resident only the payload pages its entries use, which the
 * way-major payload layout of core::BoundedTable provides. Recency
 * costs such a table at most a byte per slot: an LRU table keeps a
 * rank byte where a 64-bit stamp once stood. A PC-indexed table stays
 * on 4 KiB pages, so it makes resident only the pages of the few sets
 * its PCs use. And a replay's own scratch grows with its span only as
 * vm::kReplaySpan documents.
 *
 * Linux only: the guard reads VmRSS from /proc/self/status, and on
 * other platforms it is compiled out.
 */

#include <gtest/gtest.h>

#if defined(__linux__)

#include <algorithm>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include "exp/confidence.hh"
#include "exp/suite.hh"
#include "sim/driver.hh"
#include "vm/trace_file.hh"

namespace {

using namespace vp;

/** Resident set size of this process in MB, from /proc/self/status. */
double
residentMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmRSS:", 0) == 0) {
            std::istringstream fields(line.substr(6));
            double kb = 0;
            fields >> kb;
            return kb / 1024.0;
        }
    }
    ADD_FAILURE() << "no VmRSS line in /proc/self/status";
    return 0.0;
}

TEST(BankRss, BuildingMegaEntryTablesWritesNoTablePages)
{
    const double before = residentMb();
    sim::PredictorBank bank;
    exp::addSpecs(bank, {"l@1048576", "s2@1048576",
                         "fcm3@1048576/1048576x16"});
    const double grown = residentMb() - before;
    EXPECT_LT(grown, 32.0) << "bank build made " << grown
                           << " MB resident";
}

/** Keeps the gauges a bank reports. */
class GaugeSink : public core::CounterSink
{
  public:
    void counter(const std::string &, uint64_t) override {}

    void
    gauge(const std::string &name, uint64_t value) override
    {
        gauges[name] = std::max(gauges[name], value);
    }

    void distribution(const std::string &, uint64_t, uint64_t) override {}

    std::map<std::string, uint64_t> gauges;
};

/**
 * Pseudo-random values over 64 PCs: almost every event is a new
 * order-1..3 context, so each inserts three fcm VPT entries.
 */
std::vector<vm::TraceEvent>
sparseStream()
{
    constexpr size_t kEvents = 11000;
    std::vector<vm::TraceEvent> events(kEvents);
    uint64_t state = 1;
    for (size_t i = 0; i < kEvents; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        events[i] = {0x1000 + 4 * (i % 64), isa::Opcode{},
                     isa::Category::AddSub, state >> 16};
    }
    return events;
}

/** Resident growth in MB of replaying @p events through @p bank. */
double
replayGrowthMb(sim::PredictorBank &bank,
               const std::vector<vm::TraceEvent> &events)
{
    const double before = residentMb();
    bank.onBatch(vm::TraceSpan(events));
    return residentMb() - before;
}

/**
 * ~33k distinct contexts in a VPT of 786,432 slots (49,152 sets of
 * 16 ways, about 4% full), the sparse occupancy of the studies'
 * largest table. Its 64-byte payloads span 48 MB. Way-major, the
 * sets' low ways fill the first few 3 MB way-planes, and with the
 * 7.5 MB of set-major keys, ranks and control bytes the replay makes
 * 17 MB resident on 4 KiB pages and 31 MB where transparent huge
 * pages are granted (a way-plane that holds even one entry then costs
 * its 2 MiB pages).
 * With each set's 16 payloads side by side, a live slot sits on
 * nearly every payload page: 58 MB and 67 MB.
 */
TEST(BankRss, SparseTableMakesOnlyItsUsedWaysResident)
{
    sim::PredictorBank bank;
    exp::addSpecs(bank, {"fcm3@262144/786432x16"});
    const double grown = replayGrowthMb(bank, sparseStream());

    GaugeSink sink;
    bank.collectCounters(sink);
    const uint64_t live = sink.gauges["fcm.vpt.occupancy"];
    EXPECT_GT(live, 30000u);
    EXPECT_LT(live, 40000u);
    EXPECT_LT(grown, 48.0) << live << " VPT entries made " << grown
                           << " MB resident";
}

/**
 * The same sparse replay through the LRU table and its random-victim
 * twin, which keeps no recency at all. Both fill the same slots (an
 * insert takes its set's first empty way whatever the policy), so
 * what LRU makes resident beyond the twin is its recency state: a
 * rank byte per slot of the touched sets, at most the 1 MB of ranks
 * over both tables' 1,048,576 slots, plus a 2 MiB page of slack. A
 * 64-bit stamp per slot would make 7 to 9 MB resident here.
 */
TEST(BankRss, RecencyCostsAtMostOneBytePerSlot)
{
    sim::PredictorBank random;
    exp::addSpecs(random, {"fcm3@262144/786432x16r"});
    sim::PredictorBank lru;
    exp::addSpecs(lru, {"fcm3@262144/786432x16"});
    const std::vector<vm::TraceEvent> events = sparseStream();

    const double random_grown = replayGrowthMb(random, events);
    const double lru_grown = replayGrowthMb(lru, events);
    constexpr double kSlots = 262144 + 786432;
    const double bound = kSlots / (1 << 20) + 2.0;
    EXPECT_LT(lru_grown - random_grown, bound)
            << "LRU replay made " << lru_grown << " MB resident, its "
            << "random twin " << random_grown << " MB";
}

/**
 * PC-indexed tables hold a program's static PCs in a few adjacent
 * sets, so their 1M-entry arrays stay on 4 KiB pages (core/hugepage.hh)
 * and the 64 PCs of the sparse stream make only the pages of their
 * sets resident: about 20-40 KB per table. On huge pages each array
 * a PC touches would cost a whole 2 MiB page, about 4 MB per table.
 */
TEST(BankRss, PcIndexedTablesStayOnSmallPages)
{
    const std::vector<vm::TraceEvent> events = sparseStream();
    for (const char *spec : {"l@1048576x16", "s2@1048576x16"}) {
        sim::PredictorBank bank;
        exp::addSpecs(bank, {spec});
        const double grown = replayGrowthMb(bank, events);
        EXPECT_LT(grown, 1.0) << spec << " replay made " << grown
                              << " MB resident";
    }
}

/**
 * Replays @p events from an in-memory VPT2 file through @p bank in
 * spans of @p span, the way vpexp streams its trace cache, and returns
 * the resident growth in MB with the span buffer still alive.
 */
double
fileReplayGrowthMb(sim::PredictorBank &bank, const std::string &file,
                   size_t span)
{
    const double before = residentMb();
    std::istringstream in(file);
    const auto reader = vm::openTrace(in);
    vm::ReaderBatchSource source(*reader, span);
    sim::replayTrace(source, bank);
    return residentMb() - before;
}

/**
 * What a replay costs beyond its tables at the production span: per
 * event of the span, 24 B of source buffer, 16 B of pc/value arrays
 * and 2 bits per node of outcome rows (vm::kReplaySpan), about 4 MB
 * for the widest registry bank, confidence's 72 nodes. The stream
 * repeats a few values per PC, so the tables stay small and both
 * replays grow them alike; the production span may add at most that
 * cost plus a 2 MiB page of slack over a replay in 4,096-event spans.
 */
TEST(BankRss, ProductionSpanCostsOnlyItsDocumentedScratch)
{
    std::vector<vm::TraceEvent> events(2 * vm::kReplaySpan + 4321);
    for (size_t i = 0; i < events.size(); ++i) {
        const uint64_t pc = i % 64;
        events[i] = {0x1000 + 4 * pc, isa::Opcode{},
                     isa::Category::AddSub, pc * 977 + (i / 64) % 4};
    }
    std::ostringstream out;
    vm::Vpt2Writer writer(out);
    for (const auto &event : events)
        writer.onValue(event);
    writer.finish();

    sim::PredictorBank small;
    exp::addSpecs(small, exp::confidenceSweepSpecs());
    sim::PredictorBank production;
    exp::addSpecs(production, exp::confidenceSweepSpecs());
    ASSERT_EQ(production.nodeCount(), 72u);

    const double small_grown = fileReplayGrowthMb(small, out.str(), 4096);
    const double production_grown =
            fileReplayGrowthMb(production, out.str(), vm::kReplaySpan);
    const double scratch_mb =
            (vm::kReplaySpan * (24.0 + 16.0) +
             vm::kReplaySpan * 2.0 * production.nodeCount() / 8) /
            (1 << 20);
    EXPECT_LT(production_grown - small_grown, scratch_mb + 2.0)
            << "replay in spans of " << vm::kReplaySpan << " made "
            << production_grown << " MB resident, in spans of 4096 "
            << small_grown << " MB";
}

} // namespace

#endif // __linux__
