#include "core/bounded.hh"

#include <algorithm>
#include <stdexcept>
#include <string>

namespace vp::core {

namespace {

/**
 * Prefetch distance for the batched loops, in events. The hardware
 * keeps only a dozen or so line fills in flight, so issuing a batch's
 * prefetches as one burst just drops most of them; instead each
 * processed event prefetches its first-level table set a fixed
 * distance ahead, keeping the miss queue full without overflowing it.
 */
constexpr size_t kPrefetchAhead = 24;

} // anonymous namespace

std::string
boundedSuffixTail(const BoundedTableConfig &config)
{
    // Built with += (GCC 12's -Wrestrict misfires on the
    // char* + std::string&& operator chain).
    std::string s = "x";
    s += std::to_string(config.ways);
    if (config.replacement == Replacement::Random)
        s += "r";
    else if (config.replacement == Replacement::Fifo)
        s += "f";
    if (config.tagBits > 0) {
        s += "%";
        s += std::to_string(config.tagBits);
    }
    return s;
}

std::string
boundedSuffix(const BoundedTableConfig &config)
{
    std::string s = "@";
    s += std::to_string(config.entries);
    s += boundedSuffixTail(config);
    return s;
}

void
emitTableCounters(const BoundedTableTelemetry &telemetry,
                  const std::string &prefix, CounterSink &sink)
{
    sink.gauge(prefix + "capacity", telemetry.capacity);
    sink.gauge(prefix + "occupancy", telemetry.live);
    sink.counter(prefix + "evictions", telemetry.evictions);
    sink.counter(prefix + "aliased_peeks", telemetry.aliasedPeeks);
    sink.counter(prefix + "aliased_touches", telemetry.aliasedTouches);
    sink.counter(prefix + "alias_constructive",
                 telemetry.aliasConstructive);
    sink.counter(prefix + "alias_destructive",
                 telemetry.aliasDestructive);
    sink.counter(prefix + "probes", telemetry.probes);
    for (size_t d = 0; d < telemetry.probeDepth.size(); ++d) {
        sink.distribution(prefix + "probe_depth", d,
                          telemetry.probeDepth[d]);
    }
}

// ------------------------------------------------------ last value

BoundedLastValuePredictor::BoundedLastValuePredictor(
        LvConfig config, BoundedTableConfig table)
    : config_(config), table_(table)
{
}

Prediction
BoundedLastValuePredictor::predict(uint64_t pc) const
{
    const LvEntry *entry = table_.peek(pc);
    if (entry == nullptr)
        return Prediction::none();
    return Prediction::of(entry->value);
}

void
BoundedLastValuePredictor::update(uint64_t pc, uint64_t actual)
{
    bool inserted = false;
    bool aliased = false;
    LvEntry &entry = table_.touch(pc, inserted, &aliased);
    if (aliased) {
        // The foreign entry just served this PC's prediction
        // (predict() matched the same partial tag): classify it.
        table_.noteAliasOutcome(entry.value == actual);
    }
    if (inserted)
        lvInitEntry(entry, actual, config_);
    else
        lvTrainEntry(entry, actual, config_);
}

void
BoundedLastValuePredictor::evalBatch(const uint64_t *pcs,
                                     const uint64_t *values, size_t n,
                                     uint64_t *valid, uint64_t *correct)
{
    // Pipelined prefetch: each event prefetches the set a fixed
    // lookahead distance ahead, so the table misses overlap
    // (memory-level parallelism the one-event-at-a-time protocol
    // cannot express) without flooding the miss queue.
    for (size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n)
            table_.prefetch(pcs[i + kPrefetchAhead]);

        bool inserted = false;
        bool aliased = false;
        LvEntry &entry = table_.touch(pcs[i], inserted, &aliased);
        if (inserted) {
            // The scalar peek() would have missed: no prediction.
            lvInitEntry(entry, values[i], config_);
            continue;
        }
        // The entry (own or tag-aliased foreign) is exactly what the
        // scalar predict() peeked: grade it before training it.
        const bool hit = entry.value == values[i];
        bits::set(valid, i);
        if (hit)
            bits::set(correct, i);
        if (aliased)
            table_.noteAliasOutcome(hit);
        lvTrainEntry(entry, values[i], config_);
    }
}

std::string
BoundedLastValuePredictor::name() const
{
    return lvPolicyName(config_.policy) + boundedSuffix(table_.config());
}

void
BoundedLastValuePredictor::reset()
{
    table_.clear();
}

void
BoundedLastValuePredictor::collectCounters(CounterSink &sink) const
{
    emitTableCounters(table_.telemetry(), "lv.", sink);
}

// ---------------------------------------------------------- stride

BoundedStridePredictor::BoundedStridePredictor(StrideConfig config,
                                               BoundedTableConfig table)
    : config_(config), table_(table)
{
}

Prediction
BoundedStridePredictor::predict(uint64_t pc) const
{
    const StrideEntry *entry = table_.peek(pc);
    if (entry == nullptr)
        return Prediction::none();
    return Prediction::of(stridePredictValue(*entry));
}

void
BoundedStridePredictor::update(uint64_t pc, uint64_t actual)
{
    bool inserted = false;
    bool aliased = false;
    StrideEntry &entry = table_.touch(pc, inserted, &aliased);
    if (aliased)
        table_.noteAliasOutcome(stridePredictValue(entry) == actual);
    if (inserted)
        strideInitEntry(entry, actual, config_);
    else
        strideTrainEntry(entry, actual, config_);
}

void
BoundedStridePredictor::evalBatch(const uint64_t *pcs,
                                  const uint64_t *values, size_t n,
                                  uint64_t *valid, uint64_t *correct)
{
    // Pipelined set prefetch; see BoundedLastValuePredictor.
    for (size_t i = 0; i < n; ++i) {
        if (i + kPrefetchAhead < n)
            table_.prefetch(pcs[i + kPrefetchAhead]);

        bool inserted = false;
        bool aliased = false;
        StrideEntry &entry = table_.touch(pcs[i], inserted, &aliased);
        if (inserted) {
            strideInitEntry(entry, values[i], config_);
            continue;
        }
        const bool hit = stridePredictValue(entry) == values[i];
        bits::set(valid, i);
        if (hit)
            bits::set(correct, i);
        if (aliased)
            table_.noteAliasOutcome(hit);
        strideTrainEntry(entry, values[i], config_);
    }
}

std::string
BoundedStridePredictor::name() const
{
    return stridePolicyName(config_.policy) +
           boundedSuffix(table_.config());
}

void
BoundedStridePredictor::reset()
{
    table_.clear();
}

void
BoundedStridePredictor::collectCounters(CounterSink &sink) const
{
    emitTableCounters(table_.telemetry(), "stride.", sink);
}

// ------------------------------------------------------------- fcm

BoundedFcmPredictor::BoundedFcmPredictor(BoundedFcmConfig config)
    : config_(config), vht_(config.vht), vpt_(config.vpt)
{
    if (config_.fcm.order < 0 || config_.fcm.order > maxOrder) {
        throw std::invalid_argument(
                "bounded fcm order must be in [0, " +
                std::to_string(maxOrder) + "]");
    }
}

uint64_t
BoundedFcmPredictor::contextKey(uint64_t pc, int j, const VhtEntry &entry)
{
    // FNV-1a style mix over (pc, order, the j newest history values);
    // the same whole-value mixing as the unbounded predictor's
    // KeyHash, with pc and j folded in because the VPT is shared
    // across PCs and orders.
    uint64_t hash = 1469598103934665603ull;
    const auto fold = [&hash](uint64_t v) {
        hash ^= v;
        hash *= 1099511628211ull;
        hash ^= hash >> 29;
    };
    fold(pc);
    fold(static_cast<uint64_t>(j) + 1);
    for (int i = entry.len - j; i < entry.len; ++i)
        fold(entry.history[static_cast<size_t>(i)]);
    return hash;
}

int
BoundedFcmPredictor::longestMatch(uint64_t pc, const VhtEntry &entry) const
{
    const int max_order =
            std::min<int>(config_.fcm.order, entry.len);
    const int min_order = config_.fcm.blending == FcmBlending::None
                                  ? config_.fcm.order
                                  : 0;
    for (int j = max_order; j >= min_order; --j) {
        const FcmFollowers *followers =
                vpt_.peek(contextKey(pc, j, entry));
        if (followers != nullptr && !followers->cells.empty())
            return j;
    }
    return -1;
}

Prediction
BoundedFcmPredictor::predict(uint64_t pc) const
{
    const VhtEntry *entry = vht_.peek(pc);
    if (entry == nullptr)
        return Prediction::none();

    if (config_.fcm.blending == FcmBlending::None &&
        entry->len < config_.fcm.order) {
        return Prediction::none();
    }

    const int match = longestMatch(pc, *entry);
    if (match < 0)
        return Prediction::none();

    const FcmFollowers *followers =
            vpt_.peek(contextKey(pc, match, *entry));
    const auto *best = followers->best();
    if (best == nullptr)
        return Prediction::none();
    return Prediction::of(best->value);
}

void
BoundedFcmPredictor::update(uint64_t pc, uint64_t actual)
{
    bool inserted = false;
    VhtEntry &entry = vht_.touch(pc, inserted);

    // Which orders to train (mirrors FcmPredictor::update).
    int lowest = 0;
    switch (config_.fcm.blending) {
      case FcmBlending::None:
        lowest = config_.fcm.order;
        break;
      case FcmBlending::Full:
        lowest = 0;
        break;
      case FcmBlending::LazyExclusion: {
        const int match = longestMatch(pc, entry);
        lowest = match < 0 ? 0 : match;
        break;
      }
    }

    ++seq_;
    const int max_order = std::min<int>(config_.fcm.order, entry.len);
    for (int j = max_order; j >= lowest; --j) {
        bool vpt_inserted = false;
        bool vpt_aliased = false;
        FcmFollowers &followers = vpt_.touch(contextKey(pc, j, entry),
                                             vpt_inserted, &vpt_aliased);
        if (vpt_aliased) {
            // What the foreign context would have predicted, before
            // this training bump pollutes it.
            const auto *best = followers.best();
            vpt_.noteAliasOutcome(best != nullptr &&
                                  best->value == actual);
        }
        followers.bump(actual, seq_, config_.fcm.counterMax,
                       config_.maxFollowers);
    }

    // Slide the history window.
    if (entry.len == config_.fcm.order) {
        if (entry.len > 0) {
            std::copy(entry.history.begin() + 1,
                      entry.history.begin() + entry.len,
                      entry.history.begin());
            entry.history[static_cast<size_t>(entry.len - 1)] = actual;
        }
    } else {
        entry.history[entry.len] = actual;
        ++entry.len;
    }
}

void
BoundedFcmPredictor::evalBatch(const uint64_t *pcs,
                               const uint64_t *values, size_t n,
                               uint64_t *valid, uint64_t *correct)
{
    // The batched win is twofold. First, eliminating repeated work:
    // the scalar predict()/update() pair probes the VHT twice and
    // scans the VPT twice per event, then probes it again for every
    // order it trains, while this loop pays one VHT touch and one
    // longest-first VPT scan whose probes training reuses. An order
    // the scan matched at the top is re-touched in place via the slot
    // it returned (the steady-state common case under lazy exclusion:
    // one VPT probe per event), and an order the scan missed is
    // inserted into the set its probe already found, so no VPT
    // context is probed twice in one event except in the few cases
    // the VPT stage names.
    // Second, a two-stage software pipeline: the VHT stage of event i
    // touches the VHT, computes the top-order context key, snapshots
    // the pre-slide history and issues the VPT-set prefetch; the VPT
    // stage (the scan/grade/train work) runs kStage events later,
    // when that set is resident. The reorder is sound because the two
    // stages mutate different tables: every VHT operation still
    // happens in event order, and so does every VPT operation, so the
    // observable state is byte-identical to the scalar interleaving
    // (the scan reads the snapshot, which is exactly the history the
    // scalar scan would have seen). Only the VPT's probe telemetry
    // (probes, probe_depth, aliased_peeks) differs from the scalar
    // protocol's, which probes more.
    const int min_order = config_.fcm.blending == FcmBlending::None
                                  ? config_.fcm.order
                                  : 0;

    /** Per-event state handed from the VHT stage to the VPT stage. */
    struct Staged
    {
        VhtEntry pre;       ///< history *before* this event's slide
        uint64_t topKey;    ///< context key of order min(order, pre.len)
        size_t index;       ///< event index (bitset position)
        bool inserted;      ///< VHT touch allocated a fresh entry
    };
    constexpr size_t kStage = 8;
    Staged stage[kStage];

    // The VHT is indexed by PC, and its working set stays
    // cache-resident, so its stage issues no prefetch of its own.
    const auto vhtStage = [&](size_t i) {
        Staged &st = stage[i % kStage];
        st.index = i;
        st.inserted = false;
        VhtEntry &entry = vht_.touch(pcs[i], st.inserted);
        st.pre = entry;
        const int max_order = std::min<int>(config_.fcm.order, entry.len);
        if (max_order >= min_order) {
            st.topKey = contextKey(pcs[i], max_order, entry);
            vpt_.prefetch(st.topKey);
        }
        // Slide the history window now; the VPT stage reads st.pre.
        if (entry.len == config_.fcm.order) {
            if (entry.len > 0) {
                std::copy(entry.history.begin() + 1,
                          entry.history.begin() + entry.len,
                          entry.history.begin());
                entry.history[static_cast<size_t>(entry.len - 1)] =
                        values[i];
            }
        } else {
            entry.history[entry.len] = values[i];
            ++entry.len;
        }
    };

    const auto vptStage = [&](const Staged &st) {
        const size_t i = st.index;
        const uint64_t pc = pcs[i];
        const int max_order =
                std::min<int>(config_.fcm.order, st.pre.len);

        // Lazy longest-first scan, stopping at the first hit like the
        // scalar longestMatch(). One scan serves both the prediction
        // and the lazy-exclusion training floor (nothing mutates this
        // PC's state between the scalar predict() and update() scans,
        // so they always agree). Keys are remembered down to where the
        // scan stopped; Full blending recomputes the rest on demand.
        // An order whose peek found no entry at all (an exact table
        // miss, not a found entry without followers) also keeps the
        // first slot of its set, for training to insert into.
        constexpr size_t kFound = SIZE_MAX;
        uint64_t keys[maxOrder + 1] = {};
        size_t missBase[maxOrder + 1] = {};
        int match = -1;
        int scanned = max_order + 1;
        size_t matchSlot = 0;
        const FcmFollowers *matched = nullptr;
        for (int j = max_order; j >= min_order; --j) {
            keys[j] = j == max_order ? st.topKey
                                     : contextKey(pc, j, st.pre);
            scanned = j;
            size_t slot = 0;
            const FcmFollowers *followers = vpt_.peekSlot(keys[j], slot);
            missBase[j] = followers == nullptr ? slot : kFound;
            if (followers != nullptr && !followers->cells.empty()) {
                match = j;
                matched = followers;
                matchSlot = slot;
                break;
            }
        }

        // A fresh VHT entry means the scalar predict() missed the VHT
        // peek and declined; the scan above still ran because the
        // scalar update() recomputes it for the training floor.
        if (!st.inserted && matched != nullptr) {
            const auto *best = matched->best();
            if (best != nullptr) {
                bits::set(valid, i);
                if (best->value == values[i])
                    bits::set(correct, i);
            }
        }

        int lowest = 0;
        switch (config_.fcm.blending) {
          case FcmBlending::None:
            lowest = config_.fcm.order;
            break;
          case FcmBlending::Full:
            lowest = 0;
            break;
          case FcmBlending::LazyExclusion:
            lowest = match < 0 ? 0 : match;
            break;
        }

        ++seq_;
        const auto train = [&](FcmFollowers &followers, bool aliased) {
            if (aliased) {
                // What the foreign context would have predicted,
                // before this training bump pollutes it.
                const auto *best = followers.best();
                vpt_.noteAliasOutcome(best != nullptr &&
                                      best->value == values[i]);
            }
            followers.bump(values[i], seq_, config_.fcm.counterMax,
                           config_.maxFollowers);
        };

        // Whether order j's scan miss still holds when training
        // reaches it, so it can be inserted without a probe. Training
        // runs from the top order down, so every order above j is
        // already trained, and each was a scan miss or a found entry
        // without followers. An earlier insert into j's set can turn
        // j's key into a hit (with partial tags, an aliased one), so
        // j is probed again when an order above it landed in its set,
        // or in a set the scan did not keep.
        const auto stillMissed = [&](int j) {
            if (j < scanned || missBase[j] == kFound)
                return false;
            for (int k = j + 1; k <= max_order; ++k) {
                if (missBase[k] == kFound || missBase[k] == missBase[j])
                    return false;
            }
            return true;
        };

        if (match == max_order && lowest == max_order &&
            matched != nullptr) {
            // Steady-state fast path: the only order to train is the
            // one the scan just matched, and nothing has mutated the
            // VPT since — re-touch the matched slot directly instead
            // of probing its set again.
            bool vpt_aliased = false;
            FcmFollowers &followers =
                    vpt_.touchAt(matchSlot, keys[max_order], &vpt_aliased);
            train(followers, vpt_aliased);
            return;
        }
        for (int j = max_order; j >= lowest; --j) {
            if (stillMissed(j)) {
                train(vpt_.insertMiss(missBase[j], keys[j]), false);
                continue;
            }
            const uint64_t key =
                    j >= scanned ? keys[j] : contextKey(pc, j, st.pre);
            bool vpt_inserted = false;
            bool vpt_aliased = false;
            FcmFollowers &followers =
                    vpt_.touch(key, vpt_inserted, &vpt_aliased);
            train(followers, vpt_aliased);
        }
    };

    for (size_t i = 0; i < n; ++i) {
        if (i >= kStage)
            vptStage(stage[i % kStage]);
        vhtStage(i);
    }
    for (size_t i = n > kStage ? n - kStage : 0; i < n; ++i)
        vptStage(stage[i % kStage]);
}

std::string
BoundedFcmPredictor::name() const
{
    std::string s = fcmVariantName(config_.fcm) + "@" +
                    std::to_string(vht_.capacity()) + "/" +
                    std::to_string(vpt_.capacity());
    s += boundedSuffixTail(vpt_.config());
    return s;
}

void
BoundedFcmPredictor::reset()
{
    vht_.clear();
    vpt_.clear();
    seq_ = 0;
}

void
BoundedFcmPredictor::collectCounters(CounterSink &sink) const
{
    emitTableCounters(vht_.telemetry(), "fcm.vht.", sink);
    emitTableCounters(vpt_.telemetry(), "fcm.vpt.", sink);
}

} // namespace vp::core
