/**
 * @file
 * Microbenchmarks (google-benchmark): predictor lookup/update
 * throughput and table growth on representative value streams.
 *
 * The paper ignores predictor cost by design; these numbers put the
 * "context prediction is the more expensive approach" remark of
 * Section 4.2 on an engineering footing for this implementation.
 */

#include <chrono>
#include <string_view>
#include <vector>

#include <benchmark/benchmark.h>

#include "core/bounded.hh"
#include "core/fcm.hh"
#include "core/hybrid.hh"
#include "core/last_value.hh"
#include "core/stride.hh"
#include "exp/suite.hh"
#include "sim/driver.hh"
#include "synth/sequences.hh"
#include "vm/trace.hh"

using namespace vp;
using namespace vp::core;
using namespace vp::synth;

namespace {

/** Mixed stream over many PCs: constants, strides, repeated RNS. */
std::vector<std::pair<uint64_t, uint64_t>>
mixedStream(size_t events)
{
    std::vector<std::pair<uint64_t, uint64_t>> stream;
    stream.reserve(events);
    const auto constants = constantSeq(42, events / 4 + 1);
    const auto strides = strideSeq(0, 8, events / 4 + 1);
    const auto rns = repeatedNonStrideSeq(3, 7, events / 4 + 1);
    const auto ns = nonStrideSeq(5, events / 4 + 1);
    for (size_t i = 0; stream.size() < events; ++i) {
        stream.emplace_back(0, constants[i]);
        stream.emplace_back(1, strides[i]);
        stream.emplace_back(2, rns[i]);
        stream.emplace_back(3, ns[i]);
    }
    stream.resize(events);
    return stream;
}

template <typename MakePred>
void
runPredictor(benchmark::State &state, MakePred make)
{
    const auto stream = mixedStream(4096);
    auto pred = make();
    size_t i = 0;
    for (auto _ : state) {
        const auto &[pc, value] = stream[i];
        benchmark::DoNotOptimize(pred->predict(pc));
        pred->update(pc, value);
        i = (i + 1) % stream.size();
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["table_entries"] =
            static_cast<double>(pred->tableEntries());
}

void
BM_LastValue(benchmark::State &state)
{
    runPredictor(state,
                 [] { return std::make_unique<LastValuePredictor>(); });
}

void
BM_StrideTwoDelta(benchmark::State &state)
{
    runPredictor(state,
                 [] { return std::make_unique<StridePredictor>(); });
}

void
BM_Fcm(benchmark::State &state)
{
    const int order = static_cast<int>(state.range(0));
    runPredictor(state, [order] {
        FcmConfig config;
        config.order = order;
        return std::make_unique<FcmPredictor>(config);
    });
    state.SetLabel("order " + std::to_string(order));
}

void
BM_Hybrid(benchmark::State &state)
{
    runPredictor(state,
                 [] { return std::make_unique<HybridPredictor>(); });
}

/**
 * Stream spread over many static PCs (per-PC stride sequences), the
 * regime where table organisation dominates: the unbounded predictors
 * chase unordered_map nodes, the bounded ones probe a flat
 * set-associative array.
 */
std::vector<std::pair<uint64_t, uint64_t>>
manyPcStream(size_t events, size_t pcs)
{
    std::vector<std::pair<uint64_t, uint64_t>> stream;
    stream.reserve(events);
    std::vector<uint64_t> occurrences(pcs, 0);
    for (size_t i = 0; i < events; ++i) {
        const uint64_t pc = (i * 17) % pcs;
        const uint64_t stride = pc % 7 + 1;
        stream.emplace_back(pc, pc * 1000 + occurrences[pc]++ * stride);
    }
    return stream;
}

template <typename MakePred>
void
runPredictorManyPc(benchmark::State &state, MakePred make)
{
    const auto stream = manyPcStream(1 << 16, 4096);
    auto pred = make();
    size_t i = 0;
    for (auto _ : state) {
        const auto &[pc, value] = stream[i];
        benchmark::DoNotOptimize(pred->predict(pc));
        pred->update(pc, value);
        i = (i + 1) % stream.size();
    }
    state.SetItemsProcessed(state.iterations());
    state.counters["table_entries"] =
            static_cast<double>(pred->tableEntries());
}

/**
 * Bounded vs unbounded hot path, same stream: the per-event cost
 * comparison backing the "flat arrays beat node-based maps" claim in
 * the README's capacity-sweep section.
 */
void
BM_LastValueManyPc(benchmark::State &state)
{
    runPredictorManyPc(
            state, [] { return std::make_unique<LastValuePredictor>(); });
}

void
BM_BoundedLastValueManyPc(benchmark::State &state)
{
    runPredictorManyPc(state, [] {
        return vp::exp::makePredictor("l@8192x4");
    });
}

void
BM_StrideManyPc(benchmark::State &state)
{
    runPredictorManyPc(
            state, [] { return std::make_unique<StridePredictor>(); });
}

void
BM_BoundedStrideManyPc(benchmark::State &state)
{
    runPredictorManyPc(state, [] {
        return vp::exp::makePredictor("s2@8192x4");
    });
}

void
BM_FcmManyPc(benchmark::State &state)
{
    runPredictorManyPc(state, [] {
        FcmConfig config;
        config.order = 3;
        return std::make_unique<FcmPredictor>(config);
    });
}

void
BM_BoundedFcmManyPc(benchmark::State &state)
{
    runPredictorManyPc(state, [] {
        return vp::exp::makePredictor("fcm3@8192/65536x4");
    });
}

/**
 * Batched replay through the full PredictorBank, the path every
 * experiment cell takes, against the scalar per-event
 * predict()/update() protocol on the same predictor. The stream mirrors the value locality
 * real traces have (the paper's premise): many static PCs, each
 * producing a constant, a short repeating stride phase, or a repeated
 * non-stride cycle, so the predictors *learn* and the per-event cost
 * is table probing rather than cold-miss allocation. Enough distinct
 * (PC, context) pairs that the 1M-entry budgets below spread their
 * probes past the cache hierarchy — the regime the batched hot path
 * (one virtual dispatch per block, one table probe per event, set
 * prefetching) is built for. The ratio of each pair is the
 * BENCH_hotpath.json headline.
 */
std::vector<vm::TraceEvent>
makeReplayStream(size_t events, uint64_t pcs)
{
    std::vector<vm::TraceEvent> out;
    out.reserve(events);
    std::vector<uint64_t> occurrences(pcs, 0);
    for (size_t i = 0; i < events; ++i) {
        // Scrambled visit order (pcs is a power of two, the multiplier
        // is odd, so this is a bijection): successive events touch
        // unrelated PCs, the way a large program's interleaved
        // control flow does, rather than marching an arithmetic stride
        // the hardware prefetcher could lock onto.
        const uint64_t pc = (((i * 17) % pcs) * 2654435761u) & (pcs - 1);
        const uint64_t n = occurrences[pc]++;
        uint64_t value = 0;
        switch (pc % 3) {
          case 0:       // constant
            value = pc * 1000;
            break;
          case 1:       // stride phase repeating every 8
            value = pc * 1000 + (n % 8) * (pc % 7 + 1);
            break;
          default:      // repeated non-stride cycle of 4
            value = pc * 1000 + ((n % 4) * 2654435761u) % 1000;
            break;
        }
        out.push_back(vm::TraceEvent{pc, isa::Opcode{},
                                     isa::Category::AddSub, value});
    }
    return out;
}

/** Stream for the unbounded pairs: modest PC count so the node-based
 *  tables stay within a sane memory footprint. */
const std::vector<vm::TraceEvent> &
replayStream()
{
    static const std::vector<vm::TraceEvent> cached =
            makeReplayStream(1 << 18, 1 << 13);
    return cached;
}

/**
 * Stream for the 1M-entry bounded pairs: the same PC mix but with an
 * instruction working set (64K static PCs, 64 occurrences each) that
 * genuinely exercises a 1M-entry budget — the live sets spread across
 * tens of MB of table, far past L2, while the distinct (PC, context)
 * population still fits the VPT geometries below, so the cost stays
 * probing rather than eviction churn. The scrambled visit order
 * defeats stride prediction, so the scalar protocol serialises a
 * chain of last-level cache accesses per event (VHT, then the
 * context's VPT set) while the batched path's set prefetching and
 * two-stage pipeline overlap them across events.
 */
const std::vector<vm::TraceEvent> &
replayStreamLarge()
{
    static const std::vector<vm::TraceEvent> cached =
            makeReplayStream(1 << 22, 1 << 16);
    return cached;
}

/**
 * Manual timing: the replay itself is the measured quantity;
 * constructing the bank (for the 1M-entry geometries that is tens of
 * MB of table allocation) and tearing it down are not.
 */
void
runReplay(benchmark::State &state, const char *spec, bool batched,
          bool large)
{
    using Clock = std::chrono::steady_clock;
    const auto &events = large ? replayStreamLarge() : replayStream();
    for (auto _ : state) {
        sim::PredictorBank bank;
        bank.add(vp::exp::makePredictor(spec));
        const auto start = Clock::now();
        if (batched) {
            // Same block granularity as the streaming replay path
            // (vm::ReaderBatchSource's default).
            vm::VectorBatchSource source(events, 4096);
            sim::replayTrace(source, bank);
        } else {
            // The per-event protocol on the predictor itself, with
            // the statistics a bank member keeps.
            auto &member = bank.member(0);
            for (const auto &event : events) {
                const auto p = member.predictor->predict(event.pc);
                member.stats.record(event.cat, p.valid,
                                    p.valid && p.value == event.value);
                member.predictor->update(event.pc, event.value);
            }
        }
        state.SetIterationTime(
                std::chrono::duration<double>(Clock::now() - start)
                        .count());
        benchmark::DoNotOptimize(bank.member(0).stats.correct());
    }
    state.SetItemsProcessed(state.iterations() *
                            static_cast<int64_t>(events.size()));
    state.SetLabel(spec);
}

void
BM_ReplayScalar(benchmark::State &state, const char *spec, bool large)
{
    runReplay(state, spec, false, large);
}

void
BM_ReplayBatched(benchmark::State &state, const char *spec, bool large)
{
    runReplay(state, spec, true, large);
}

/** The 1M-entry budgets of the acceptance bar: lv/stride spend the
 *  whole budget on one table, fcm splits 1:3 VHT:VPT, the hybrid
 *  splits across stride + fcm + chooser. */
constexpr const char *kBoundedLv = "l@1048576x4";
constexpr const char *kBoundedStride = "s2@1048576x4";
constexpr const char *kBoundedFcm = "fcm3@262144/786432x4";
constexpr const char *kBoundedHybrid =
        "hybrid(s2@131072x4,fcm3@131072/655360x4;ch@131072x4)";

/** Table growth: unique-context footprint on a non-repeating stream. */
void
BM_FcmTableGrowth(benchmark::State &state)
{
    const auto values = nonStrideSeq(11, 4096);
    for (auto _ : state) {
        FcmConfig config;
        config.order = 3;
        FcmPredictor pred(config);
        for (auto v : values)
            pred.update(0, v);
        benchmark::DoNotOptimize(pred.tableEntries());
    }
}

BENCHMARK(BM_LastValue);
BENCHMARK(BM_StrideTwoDelta);
BENCHMARK(BM_Fcm)->Arg(1)->Arg(2)->Arg(3)->Arg(8);
BENCHMARK(BM_Hybrid);
BENCHMARK(BM_LastValueManyPc);
BENCHMARK(BM_BoundedLastValueManyPc);
BENCHMARK(BM_StrideManyPc);
BENCHMARK(BM_BoundedStrideManyPc);
BENCHMARK(BM_FcmManyPc);
BENCHMARK(BM_BoundedFcmManyPc);
BENCHMARK(BM_FcmTableGrowth)->Unit(benchmark::kMillisecond);

#define VP_REPLAY_PAIR(name, spec, large)                              \
    BENCHMARK_CAPTURE(BM_ReplayScalar, name, spec, large)              \
            ->Unit(benchmark::kMillisecond)                            \
            ->UseManualTime();                                         \
    BENCHMARK_CAPTURE(BM_ReplayBatched, name, spec, large)             \
            ->Unit(benchmark::kMillisecond)                            \
            ->UseManualTime()

VP_REPLAY_PAIR(l, "l", false);
VP_REPLAY_PAIR(s2, "s2", false);
VP_REPLAY_PAIR(fcm3, "fcm3", false);
VP_REPLAY_PAIR(hybrid, "hybrid", false);
VP_REPLAY_PAIR(l_1M, kBoundedLv, true);
VP_REPLAY_PAIR(s2_1M, kBoundedStride, true);
VP_REPLAY_PAIR(fcm3_1M, kBoundedFcm, true);
VP_REPLAY_PAIR(hybrid_1M, kBoundedHybrid, true);

#undef VP_REPLAY_PAIR

} // anonymous namespace

/**
 * BENCHMARK_MAIN plus a `--json` alias for
 * `--benchmark_format=json`, so the perf trajectory has a
 * machine-readable mode to match `vpexp --format json`:
 *   perf_predictors --json > perf.json
 */
int
main(int argc, char **argv)
{
    std::vector<char *> args;
    static char json_flag[] = "--benchmark_format=json";
    for (int i = 0; i < argc; ++i) {
        if (i > 0 && std::string_view(argv[i]) == "--json")
            args.push_back(json_flag);
        else
            args.push_back(argv[i]);
    }
    int count = static_cast<int>(args.size());
    benchmark::Initialize(&count, args.data());
    if (benchmark::ReportUnrecognizedArguments(count, args.data()))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return 0;
}
