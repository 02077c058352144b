/**
 * @file
 * Shared-node bank equivalence: a bank filled through exp::addSpecs —
 * one SpecInterner, so every spec and sub-spec with the same
 * canonical name is one predictor, evaluated once per batch — is
 * observably identical to one independent bank per spec.
 *
 * The spec set covers the confidence sweep (66 gates over 6 shared
 * bases, the hybrid sharing its s2 and fcm3 with the plain members),
 * bounded inners shared by a gate and a plain member, a bounded
 * hybrid shared with its gated copy and with its own components as
 * members, a hybrid whose two components are one shared predictor,
 * and the fcm3 / fcm3-sat near-collision that keying on
 * ValuePredictor::name() would conflate. Every member's statistics,
 * tableEntries() and collectCounters() dump must match at every batch
 * size, on every smoke trace.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <map>
#include <set>
#include <string>
#include <tuple>
#include <vector>

#include "exp/confidence.hh"
#include "exp/suite.hh"
#include "sim/driver.hh"
#include "vm/machine.hh"
#include "workloads/workload.hh"

namespace {

using namespace vp;

/** Down to single events, and up to the production span, which the
 *  xlisp smoke trace fills twice before a short tail. */
constexpr size_t kBatchSizes[] = {1, 7, 64, 4096, vm::kReplaySpan};

/** The confidence sweep plus the sharing shapes it does not reach. */
std::vector<std::string>
sharedSpecs()
{
    std::vector<std::string> specs = exp::confidenceSweepSpecs();
    for (const char *spec :
         {"fcm3-sat", "s2@64x2", "l@64x2", "l@64x2:c1t1d",
          "fcm2@64/256x4", "fcm2@64/256x4:c2t2",
          "hybrid(s2@64x2,fcm2@64/256x4;ch@64x2)",
          "hybrid(s2@64x2,fcm2@64/256x4;ch@64x2):c2t3",
          "hybrid(s2,s2)"}) {
        specs.push_back(spec);
    }
    return specs;
}

/** A predictor's collectCounters() dump as plain maps. */
class MapSink : public core::CounterSink
{
  public:
    void
    counter(const std::string &name, uint64_t value) override
    {
        counters[name] += value;
    }

    void
    gauge(const std::string &name, uint64_t value) override
    {
        uint64_t &slot = gauges[name];
        slot = std::max(slot, value);
    }

    void
    distribution(const std::string &name, uint64_t value,
                 uint64_t count) override
    {
        distributions[{name, value}] += count;
    }

    /**
     * Forget the bounded tables' probe accounting — probes, probe
     * depths, aliased peeks. They count *how* a table was probed,
     * which batch geometry legitimately changes (the batch path elides
     * probes); everything else describes table state and must not
     * move.
     */
    void
    dropProbeAccounting()
    {
        std::erase_if(counters, [](const auto &entry) {
            const std::string &name = entry.first;
            return name.ends_with(".probes") ||
                   name.ends_with(".aliased_peeks");
        });
        std::erase_if(distributions, [](const auto &entry) {
            return entry.first.first.ends_with(".probe_depth");
        });
    }

    bool
    operator==(const MapSink &other) const
    {
        return std::tie(counters, gauges, distributions) ==
               std::tie(other.counters, other.gauges,
                        other.distributions);
    }

    std::map<std::string, uint64_t> counters, gauges;
    std::map<std::pair<std::string, uint64_t>, uint64_t> distributions;
};

MapSink
dump(const core::ValuePredictor &pred, bool probes)
{
    MapSink sink;
    pred.collectCounters(sink);
    if (!probes)
        sink.dropProbeAccounting();
    return sink;
}

void
replay(const std::vector<vm::TraceEvent> &events,
       sim::PredictorBank &bank, size_t batch)
{
    vm::VectorBatchSource source(events, batch);
    sim::replayTrace(source, bank);
}

std::vector<vm::TraceEvent>
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

class SharedBank : public ::testing::TestWithParam<std::string>
{
};

TEST_P(SharedBank, MatchesOneIndependentBankPerSpec)
{
    const auto events =
            smokeTrace(workloads::findWorkload(GetParam()));
    const auto specs = sharedSpecs();

    // The reference: every spec alone in its own bank, nothing shared.
    // Replayed once, at the production span: its statistics and
    // tables do not depend on batch geometry (batched_equivalence_test).
    constexpr size_t kReferenceBatch = vm::kReplaySpan;
    std::vector<sim::PredictorBank> independent(specs.size());
    for (size_t s = 0; s < specs.size(); ++s) {
        independent[s].add(exp::makePredictor(specs[s]));
        replay(events, independent[s], kReferenceBatch);
    }
    MapSink independent_sum;
    for (const auto &bank : independent)
        bank.collectCounters(independent_sum);

    for (const size_t batch : kBatchSizes) {
        SCOPED_TRACE("batch " + std::to_string(batch));
        // Probe accounting follows batch geometry, so it is compared
        // at the reference's batch size only.
        const bool probes = batch == kReferenceBatch;

        sim::PredictorBank shared;
        exp::addSpecs(shared, specs);
        replay(events, shared, batch);

        ASSERT_EQ(shared.size(), specs.size());
        for (size_t s = 0; s < specs.size(); ++s) {
            SCOPED_TRACE(specs[s]);
            const auto &got = shared.member(s);
            const auto &want = independent[s].member(0);
            EXPECT_EQ(got.stats.total(), want.stats.total());
            EXPECT_EQ(got.stats.predicted(), want.stats.predicted());
            EXPECT_EQ(got.stats.correct(), want.stats.correct());
            for (int c = 0; c < isa::numCategories; ++c) {
                const auto cat = static_cast<isa::Category>(c);
                EXPECT_EQ(got.stats.total(cat), want.stats.total(cat));
                EXPECT_EQ(got.stats.predicted(cat),
                          want.stats.predicted(cat));
                EXPECT_EQ(got.stats.correct(cat),
                          want.stats.correct(cat));
            }
            EXPECT_EQ(got.predictor->tableEntries(),
                      want.predictor->tableEntries());
            EXPECT_TRUE(dump(*got.predictor, probes) ==
                        dump(*want.predictor, probes));
        }

        // A shared component reports once per member that reaches it,
        // so the bank-wide sums are those of the unshared banks.
        MapSink shared_sum;
        shared.collectCounters(shared_sum);
        MapSink want_sum = independent_sum;
        if (!probes) {
            shared_sum.dropProbeAccounting();
            want_sum.dropProbeAccounting();
        }
        EXPECT_TRUE(shared_sum == want_sum);
    }
}

INSTANTIATE_TEST_SUITE_P(
        EveryWorkload, SharedBank,
        ::testing::Values("compress", "gcc", "go", "ijpeg", "m88ksim",
                          "perl", "xlisp"));

/**
 * Distinct leaf predictors (no components) reachable from @p bank's
 * members. The bank gives each distinct predictor one node, so these
 * are the leaves it evaluates per batch.
 */
size_t
leafCount(const sim::PredictorBank &bank)
{
    std::set<const core::ValuePredictor *> leaves;
    std::vector<const core::ValuePredictor *> stack;
    for (size_t m = 0; m < bank.size(); ++m)
        stack.push_back(bank.member(m).predictor.get());
    while (!stack.empty()) {
        const core::ValuePredictor *predictor = stack.back();
        stack.pop_back();
        if (predictor->components().empty())
            leaves.insert(predictor);
        for (const auto &component : predictor->components())
            stack.push_back(component.get());
    }
    return leaves.size();
}

TEST(SharedBankShape, ConfidenceSweepEvaluatesFiveLeaves)
{
    // l, s2, fcm1, fcm2, fcm3: the hybrid's s2 and fcm3 are the plain
    // members', and every gate reads its base's rows.
    sim::PredictorBank bank;
    exp::addSpecs(bank, exp::confidenceSweepSpecs());
    EXPECT_EQ(bank.size(), 72u);
    EXPECT_EQ(leafCount(bank), 5u);
    // 5 leaves + the hybrid + 66 gates: one node per member.
    EXPECT_EQ(bank.nodeCount(), 72u);
}

TEST(SharedBankShape, SharingFollowsCanonicalNamesNotDisplayNames)
{
    const auto specs = sharedSpecs();
    sim::PredictorBank bank;
    exp::addSpecs(bank, specs);
    // The sweep's 5 plus fcm3-sat, s2@64x2, l@64x2 and fcm2@64/256x4.
    EXPECT_EQ(leafCount(bank), 9u);
    // Each extra spec is one new node (4 leaves, 3 gates, 2 hybrids);
    // the hybrids' components and the gated hybrid's inner are nodes
    // already.
    EXPECT_EQ(bank.nodeCount(), 72u + 9);

    const auto member = [&](const std::string &spec) {
        const auto it = std::find(specs.begin(), specs.end(), spec);
        EXPECT_NE(it, specs.end()) << spec;
        return bank.member(static_cast<size_t>(it - specs.begin()))
                .predictor;
    };
    // fcm3-sat is its own predictor (and named apart), not fcm3's.
    EXPECT_NE(member("fcm3-sat"), member("fcm3"));
    EXPECT_EQ(member("fcm3-sat")->name(), "fcm3-sat");

    // Without the interner nothing is shared: every gate and hybrid
    // brings its own inner predictors.
    sim::PredictorBank unshared;
    for (const auto &spec : exp::confidenceSweepSpecs())
        unshared.add(exp::makePredictor(spec));
    EXPECT_EQ(leafCount(unshared), 5u * 12 + 2 * 12);
}

} // namespace
