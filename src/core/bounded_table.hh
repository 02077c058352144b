/**
 * @file
 * Finite-capacity, set-associative prediction table.
 *
 * The paper deliberately simulates unbounded tables to expose inherent
 * value predictability (Section 3) and leaves "realistic
 * implementations with finite resources" as future work (Section 5).
 * This template is that finite resource: a fixed entry budget organised
 * as hash-indexed sets with LRU, FIFO or random replacement, used by
 * the bounded variants of every predictor family (core/bounded.hh).
 *
 * Keys are 64-bit (a PC, or a precomputed context hash). By default
 * they are matched in full, so there are no false tag matches —
 * capacity pressure shows up purely as conflict/capacity evictions,
 * which is the effect the capacity sweep experiment measures. Setting
 * BoundedTableConfig::tagBits > 0 instead matches only the low
 * tagBits of the key, as a real hardware table storing partial tags
 * would: two keys with the same truncated tag *alias* onto one entry.
 * The table keeps the full key as shadow (simulator-only) metadata so
 * aliasing is observable — see aliasedPeeks()/aliasedTouches() and
 * the constructive/destructive outcome counters the bounded
 * predictors feed via noteAliasOutcome() — without affecting the
 * hardware behaviour being modelled.
 *
 * Thread-safety contract: none. The table mutates on every touch,
 * including const-looking peeks (the mutable aliasedPeeks_ and
 * probe-depth counters), so a table — and any
 * predictor built on one — must be confined to a single thread or
 * held under one lock for reads and writes alike. That is the
 * contract net::ShardedBankMap codifies: every bank touch, even a
 * PREDICT query, happens under its stripe mutex.
 */

#ifndef VP_CORE_BOUNDED_TABLE_HH
#define VP_CORE_BOUNDED_TABLE_HH

#include <algorithm>
#include <array>
#include <bit>
#include <cstdint>
#include <memory>
#include <stdexcept>
#include <type_traits>
#include <vector>

#if defined(__SSE2__)
#include <emmintrin.h>
#endif

#include "core/hugepage.hh"

namespace vp::core {

/** Victim selection within a full set. */
enum class Replacement {
    Lru,        ///< evict the least recently touched entry
    Random,     ///< evict a deterministic pseudo-random way
    Fifo        ///< evict the least recently *inserted* entry
};

/**
 * Point-in-time counter dump of one BoundedTable, pulled by the
 * harness at cell boundaries (obs/registry.hh imports it; nothing
 * here runs on the replay hot path). All counts are cumulative since
 * construction or the last clear().
 */
struct BoundedTableTelemetry
{
    /** Probes that examined exactly d ways land in probeDepth[d]
     *  (d >= 1; depths beyond 8 clamp into the last slot). A hit in
     *  way w examined w + 1 ways; a miss examined the whole set. */
    static constexpr size_t maxDepth = 8;

    size_t capacity = 0;
    size_t live = 0;                    ///< occupied entries
    uint64_t evictions = 0;
    uint64_t aliasedPeeks = 0;
    uint64_t aliasedTouches = 0;
    uint64_t aliasConstructive = 0;
    uint64_t aliasDestructive = 0;
    uint64_t probes = 0;                ///< total recorded probes
    std::array<uint64_t, maxDepth + 1> probeDepth{};
};

/** Geometry and policy of one bounded table. */
struct BoundedTableConfig
{
    /** Total entry budget. Must be a positive multiple of @c ways. */
    size_t entries = 1024;

    /** Set associativity: at most 255, and must divide @c entries
     *  (ways == entries is one fully associative set). */
    size_t ways = 4;

    Replacement replacement = Replacement::Lru;

    /** Seed for the Random replacement stream (deterministic). */
    uint64_t seed = 0x9e3779b97f4a7c15ull;

    /**
     * Stored tag width in bits. 0 (the default) stores the full
     * 64-bit key — no false matches. 1..63 matches only the low
     * tagBits of the key, so distinct keys with equal truncated tags
     * alias onto one entry (constructive when the foreign entry
     * happens to predict correctly, destructive otherwise). Tag width
     * does not change the entry count the table reports: it shrinks
     * the per-entry tag cost, which is the §4.3 trade the aliasing
     * experiment measures.
     */
    int tagBits = 0;
};

/**
 * Fixed-capacity key -> Entry map organised as sets x ways.
 *
 * The table stores slots in a structure-of-arrays
 * layout — keys, recency ranks, control bytes and entry payloads in
 * flat arrays — and the payload array is only dereferenced on a hit
 * or a victim. Slot set * ways + way is the public slot id and the
 * index into the key, rank and control arrays, which are set-major
 * so that a probe reads one set's keys and bytes from one or two
 * cache lines. The payload array is way-major instead: way w of set s
 * lives at entries_[w * sets + s], so each way is one plane of the
 * array. A set fills its ways from way 0 upward, so a sparsely filled
 * table writes only the pages of its low way-planes, and its resident
 * memory follows its occupancy rather than its geometry (with a set's
 * 16 payloads side by side, a live slot would sit on nearly every
 * payload page). Keys stay set-major because the 4-way probe compares
 * all four keys of a set, which then share one cache line.
 *
 * Each slot's control byte is 0 when the slot is empty and otherwise
 * 0x80 | 7 hash bits of its stored tag (controlOf()). A probe
 * compares the set's control bytes with the
 * key's first and reads only the keys of the ways whose byte matched,
 * in ascending way order, so the hit way and the probe depth are
 * those of a plain scan. Sets of a multiple of 16 ways compare a
 * group of 16 control bytes in one SSE2 instruction (a scalar loop
 * where SSE2 is absent), which matters because a 16-way set's keys
 * span two cache lines while its control bytes sit in one; a miss
 * then reads no key at all, and its insert takes the first empty way
 * from the same group compare. 4-way sets keep a branchless compare
 * of their four keys (one cache line) behind the live bit, and other
 * widths a scalar byte loop. Because
 * the byte derives from the stored tag, equal tags always share it,
 * and partial-tag aliasing is exactly that of a full tag compare.
 * Every probe counts once in the probes/probe-depth telemetry. A
 * caller that peeks and then trains the same key probes its set once:
 * peekSlot() reports the slot it hit, which touchAt() re-touches, or
 * on a miss the set's first slot, into which insertMiss() inserts
 * without a second probe (and so without a second count).
 * prefetch() issues a software prefetch of a key's set (its keys,
 * control bytes and way-0 payload), which batched replay uses to
 * overlap the next events' table misses with the current event's
 * work.
 *
 * Recency is a rank byte per slot, as hardware keeps a few bits per
 * way: 0 is the most recent way of its set, and the live ways of a
 * set always hold a permutation of 0..live-1. LRU tables rank every
 * touch and FIFO tables only inserts: a touch at rank r moves ahead of
 * the ways ranked before it (each such rank grows by one) and takes
 * rank 0, and an insert moves ahead of every live way. A full set's
 * ranks are therefore a permutation of 0..ways-1, and its victim is
 * the one way ranked ways - 1: the least recently touched (LRU) or
 * inserted (FIFO) entry, exactly the way whose age stamp a 64-bit
 * clock would make the smallest. It is found like an empty way, by
 * comparing the set's rank bytes with ways - 1 (16 at a time in
 * grouped sets), not by a scan for the largest rank. A rank must fit
 * a byte, so a set holds at most 255 ways. The update is one
 * branch-free loop over the set's rank bytes. Random tables keep no
 * rank array at all and draw their victim from a seeded xorshift.
 *
 * Every array starts out zero-filled and untouched (core/hugepage.hh):
 * an all-zero slot is an empty one, so building a table writes no
 * page of an array of 2 MiB or more, and such a page is first faulted
 * in by the first touch of one of its sets (of its payloads, for the
 * way-major payload array). Smaller arrays come from calloc(), which
 * may hand out recycled heap memory and zero it by writing, so they
 * can be resident from the build on. The @p Keys kind, which every
 * owner states, picks the pages of the large arrays: a PC-indexed
 * table (last value, stride, the fcm VHT, the hybrid chooser) fills
 * only the few adjacent sets of a program's static PCs and stays on
 * 4 KiB pages, while a hashed-key table (the fcm VPT) spreads over
 * every set and asks for huge pages.
 *
 * Invariant: a slot whose control byte is 0 holds an empty Entry{} and
 * so owns no resource (no heap cells of a spilled FcmFollowers list).
 * Such a slot is zero-filled storage, or was reset by clear(), which
 * overwrites every payload; a control byte goes back to 0 nowhere
 * else, and an insert overwrites its slot with Entry{} before setting
 * the byte.
 * Teardown relies on it: the destructor walks the control bytes and
 * destroys only the payloads of live slots, so freeing a table reads
 * no payload page that holds no live entry.
 *
 * The access protocol mirrors the predictor interface: predict() uses
 * the const @c peek() (no LRU motion, so prediction never mutates
 * observable state), update() uses @c touch() which inserts, evicts
 * and refreshes recency.
 */
template <typename Entry, KeyKind Keys>
class BoundedTable
{
  public:
    explicit BoundedTable(BoundedTableConfig config = {})
        : config_(config), rng_(config.seed | 1)
    {
        if (config_.entries == 0)
            throw std::invalid_argument("bounded table needs entries > 0");
        if (config_.ways == 0 || config_.ways > config_.entries ||
            config_.entries % config_.ways != 0) {
            throw std::invalid_argument(
                    "bounded table ways must divide entries");
        }
        if (config_.tagBits < 0 || config_.tagBits > 63) {
            throw std::invalid_argument(
                    "bounded table tag width must be in [0, 63]");
        }
        if (config_.ways > 255) {
            throw std::invalid_argument(
                    "bounded table ways must be at most 255");
        }
        if (config_.tagBits > 0)
            tagMask_ = (uint64_t{1} << config_.tagBits) - 1;
        keys_.resize(config_.entries);
        ctrl_.resize(config_.entries);
        entries_.resize(config_.entries);
        // Random replacement keeps no recency at all.
        if (config_.replacement != Replacement::Random)
            ranks_.resize(config_.entries);
        sets_ = config_.entries / config_.ways;
        setMask_ = (sets_ & (sets_ - 1)) == 0 ? sets_ - 1 : 0;
        if (std::has_single_bit(config_.ways)) {
            wayMask_ = config_.ways - 1;
            wayShift_ =
                    static_cast<unsigned>(std::countr_zero(config_.ways));
        } else {
            divideWays_ = true;
        }
    }

    BoundedTable(const BoundedTable &) = default;
    BoundedTable(BoundedTable &&) = default;
    // Assigning would drop the old payloads without destroying them
    // (SlotAllocator below), and no owner needs it.
    BoundedTable &operator=(const BoundedTable &) = delete;
    BoundedTable &operator=(BoundedTable &&) = delete;

    /**
     * Destroys the payload of each live slot and releases the rest
     * unread: an empty slot owns nothing (see the invariant in the
     * class comment), so only the control bytes are walked in full.
     */
    ~BoundedTable()
    {
        if constexpr (!std::is_trivially_destructible_v<Entry>) {
            for (size_t slot = 0; slot < ctrl_.size(); ++slot) {
                if (ctrl_[slot] != 0)
                    std::destroy_at(&entries_[payloadOf(slot)]);
            }
        }
    }

    /**
     * The control byte of a slot storing @p tag: 0x80 | the top 7 bits
     * of a multiplicative hash of the tag. The set index takes the low
     * bits of the key, so these bits still differ between the keys of
     * one set. Public so tests can build keys that share a byte.
     */
    static uint8_t
    controlOf(uint64_t tag)
    {
        return static_cast<uint8_t>(
                0x80u | ((tag * 0x9e3779b97f4a7c15ull) >> 57));
    }

    size_t capacity() const { return config_.entries; }
    size_t size() const { return live_; }
    uint64_t evictions() const { return evictions_; }
    const BoundedTableConfig &config() const { return config_; }

    /** Lookups served by an entry whose full key differed (partial
     *  tags only; simulator-side shadow accounting). */
    uint64_t aliasedPeeks() const { return aliasedPeeks_; }

    /** Touches that re-trained (and re-bound) a foreign entry. */
    uint64_t aliasedTouches() const { return aliasedTouches_; }

    /** Aliased predictions that happened to be correct / wrong, as
     *  classified by the owning predictor via noteAliasOutcome(). */
    uint64_t aliasConstructive() const { return aliasConstructive_; }
    uint64_t aliasDestructive() const { return aliasDestructive_; }

    /** Dump every counter the table keeps (see the struct's doc). */
    BoundedTableTelemetry
    telemetry() const
    {
        BoundedTableTelemetry t;
        t.capacity = config_.entries;
        t.live = live_;
        t.evictions = evictions_;
        t.aliasedPeeks = aliasedPeeks_;
        t.aliasedTouches = aliasedTouches_;
        t.aliasConstructive = aliasConstructive_;
        t.aliasDestructive = aliasDestructive_;
        t.probes = probes_;
        t.probeDepth = probeDepth_;
        return t;
    }

    /**
     * Classify one aliased access: the foreign entry's prediction
     * turned out @p correct (constructive) or not (destructive —
     * declines count as wrong, the paper's accounting). Called by the
     * bounded predictors, which know the entry -> prediction mapping
     * the table itself cannot.
     */
    void
    noteAliasOutcome(bool correct)
    {
        if (correct)
            ++aliasConstructive_;
        else
            ++aliasDestructive_;
    }

    /** Look up @p key without touching recency; nullptr on miss. */
    const Entry *
    peek(uint64_t key) const
    {
        size_t slot;
        return peekSlot(key, slot);
    }

    /**
     * peek() that also reports where it looked, so a caller that goes
     * on to train the same key need not probe its set again. On a hit
     * @p slot is the matched slot, for touchAt(); on a miss it is the
     * first slot of the key's set, for insertMiss(). Identical
     * observable behaviour (including alias accounting) to peek().
     */
    const Entry *
    peekSlot(uint64_t key, size_t &slot) const
    {
        const size_t set = setOf(key);
        const size_t base = set * config_.ways;
        const int w = hitWay(base, key);
        noteProbe(probedWays(w));
        if (w < 0) {
            slot = base;
            return nullptr;
        }
        const size_t s = base + static_cast<size_t>(w);
        if (keys_[s] != key)
            ++aliasedPeeks_;
        slot = s;
        return &entries_[static_cast<size_t>(w) * sets_ + set];
    }

    /**
     * Touch a slot a peekSlot() of @p key just returned, with no
     * intervening table mutation: skips the probe, but performs
     * exactly the recency/rebinding work touch(key) would — the two
     * are interchangeable under that precondition. The entry is by
     * construction live and tag-matching, so this is never an insert.
     */
    Entry &
    touchAt(size_t slot, uint64_t key, bool *aliased = nullptr)
    {
        if (refreshes(false))
            refresh(slot, false);
        if (keys_[slot] != key) {
            ++aliasedTouches_;
            keys_[slot] = key;
            if (aliased != nullptr)
                *aliased = true;
        }
        return entries_[payloadOf(slot)];
    }

    /**
     * Software-prefetch the set @p key indexes (its keys, control
     * bytes and the payload of way 0) so a later peek()/touch() of the
     * same key finds it in cache. Pure hint: never changes any
     * state, observable or otherwise. Batched replay issues it a fixed
     * distance ahead of the probing event, so the per-event miss
     * chains overlap instead of serialising.
     */
    void
    prefetch(uint64_t key) const
    {
#if defined(__GNUC__) || defined(__clang__)
        // The set's ranks are not prefetched, although an LRU hit
        // loads and rewrites them: without that prefetch neither
        // batched serving nor the studies ran slower than with the
        // 64-bit stamps a hit only stored (a rank prefetch was not
        // tried). The
        // key prefetch covers the first 8 ways of the set: all of a
        // 4- or 8-way set, half of a 16-way one, whose probe reads
        // only the keys its control bytes select.
        const size_t set = setOf(key);
        const size_t base = set * config_.ways;
        __builtin_prefetch(keys_.data() + base);
        __builtin_prefetch(ctrl_.data() + base);
        // The payloads are way-major, so each way of the set lies in
        // its own way-plane, on its own page. Only way 0, the first
        // way a set fills, is fetched: a line per way costs a TLB
        // lookup per way, which on the 4 KiB pages of tables below
        // 2 MiB (vpd's) cut batched serving throughput by 6%, while
        // the studies' huge-page tables ran no faster with it.
        __builtin_prefetch(entries_.data() + set);
#else
        (void)key;
#endif
    }

    /**
     * Find-or-allocate @p key, evicting if its set is full, and mark
     * it most recently used. @p inserted reports whether the entry is
     * freshly (re)initialised — the caller must then treat it as
     * cold. With partial tags a foreign entry whose truncated tag
     * matches is a *hit* (inserted == false, hardware cannot tell);
     * @p aliased, when given, reports that case so the caller can
     * classify the outcome, and the shadow key is re-bound to @p key
     * (the last trainer owns the entry).
     */
    Entry &
    touch(uint64_t key, bool &inserted, bool *aliased = nullptr)
    {
        // Hit detection first, touching only the key/control arrays:
        // a hit loads the set's ranks only to refresh them.
        const size_t base = setOf(key) * config_.ways;
        const int hit = hitWay(base, key);
        noteProbe(probedWays(hit));
        inserted = hit < 0;
        if (inserted)
            return insertMiss(base, key);
        return touchAt(base + static_cast<size_t>(hit), key, aliased);
    }

    /**
     * The insert half of touch(): insert @p key into the set whose
     * first slot is @p base, taking its first empty way, or evicting
     * the victim of a full set. The precondition mirrors touchAt():
     * a peekSlot() of @p key just missed and reported @p base, and no
     * touch has landed in that set since, so touch(key) would miss
     * too. The two are then interchangeable, except that this counts
     * no probe: the peek already counted the one the miss needed.
     * Returns the fresh, cold Entry{}.
     */
    Entry &
    insertMiss(size_t base, uint64_t key)
    {
        const size_t s = insertSlot(base);
        if (refreshes(true))
            refresh(s, true);
        Entry &entry = entries_[payloadOf(s)];
        entry = Entry{};
        keys_[s] = key;
        ctrl_[s] = controlOf(tagOf(key));
        return entry;
    }

    /** Discard all entries (the budget itself is immutable). */
    void
    clear()
    {
        std::fill(keys_.begin(), keys_.end(), 0);
        std::fill(ranks_.begin(), ranks_.end(), 0);
        std::fill(ctrl_.begin(), ctrl_.end(), 0);
        std::fill(entries_.begin(), entries_.end(), Entry{});
        live_ = 0;
        evictions_ = 0;
        aliasedPeeks_ = 0;
        aliasedTouches_ = 0;
        aliasConstructive_ = 0;
        aliasDestructive_ = 0;
        probes_ = 0;
        probeDepth_.fill(0);
        rng_ = config_.seed | 1;
    }

  private:
    /** Ways a probe examined: w + 1 on a hit in way w, the whole set
     *  on a miss. */
    size_t
    probedWays(int hit) const
    {
        return hit >= 0 ? static_cast<size_t>(hit) + 1 : config_.ways;
    }

    /** Fold one probe of @p depth ways into the depth distribution.
     *  Two plain increments amid the probe's own cache traffic; the
     *  counters are always on (no mode flag, so replay is identical
     *  with or without a consumer) and pulled via telemetry(). */
    void
    noteProbe(size_t depth) const
    {
        ++probes_;
        ++probeDepth_[std::min(depth, BoundedTableTelemetry::maxDepth)];
    }

    /** Whether a touch (an insert when @p inserted) refreshes its
     *  slot's recency: see the class comment. */
    bool
    refreshes(bool inserted) const
    {
        return config_.replacement == Replacement::Lru ||
               (inserted && config_.replacement == Replacement::Fifo);
    }

    /**
     * Make @p slot the most recent of its set: rank 0, moving ahead of
     * every way ranked before it (of every way, for an insert). Ways
     * that are not live take part too, harmlessly: no rank grows past
     * the way count, and an insert resets its slot's rank.
     */
    void
    refresh(size_t slot, bool inserted)
    {
        const size_t ways = config_.ways;
        const size_t way = divideWays_ ? slot % ways : slot & wayMask_;
        uint8_t *const set = &ranks_[slot - way];
        // Ranks below this one grow by one; an insert's bound, ways,
        // exceeds every live rank. The loop has no data-dependent
        // branch, so it also runs for a hit on rank 0, which moves
        // nothing.
        const unsigned ahead = inserted ? static_cast<unsigned>(ways)
                                        : set[way];
        for (size_t w = 0; w < ways; ++w)
            set[w] = static_cast<uint8_t>(set[w] + (set[w] < ahead));
        set[way] = 0;
    }

    /** The stored tag: the low tagBits of @p key (full key when 0). */
    uint64_t
    tagOf(uint64_t key) const
    {
        return tagMask_ != 0 ? key & tagMask_ : key;
    }

    /** Whether sets are probed 16 control bytes at a time. */
    bool
    grouped() const
    {
        return config_.ways % 16 == 0;
    }

    /** Bit i set iff byte i of the 16 at @p group equals @p byte. */
    static unsigned
    matchGroup(const uint8_t *group, uint8_t byte)
    {
#if defined(__SSE2__)
        const __m128i bytes = _mm_loadu_si128(
                reinterpret_cast<const __m128i *>(group));
        return static_cast<unsigned>(_mm_movemask_epi8(_mm_cmpeq_epi8(
                bytes, _mm_set1_epi8(static_cast<char>(byte)))));
#else
        unsigned mask = 0;
        for (unsigned i = 0; i < 16; ++i)
            mask |= static_cast<unsigned>(group[i] == byte) << i;
        return mask;
#endif
    }

    /**
     * First way of @p key's set whose live tag matches, or -1 (see
     * the class comment). The 4-way layout (the default geometry
     * everywhere) is resolved branchlessly — the matching way is
     * data-dependent, so a short-circuiting scan pays a mispredicted
     * branch on nearly every probe. Its four keys share one cache
     * line, so it compares them all and uses the control byte only
     * as the live bit, with no hash to compute.
     */
    int
    hitWay(size_t base, uint64_t key) const
    {
        const uint64_t tag = tagOf(key);
        if (config_.ways == 4) {
            unsigned mask = 0;
            for (unsigned w = 0; w < 4; ++w) {
                mask |= static_cast<unsigned>(
                                ctrl_[base + w] != 0 &&
                                tagOf(keys_[base + w]) == tag)
                        << w;
            }
            return mask != 0 ? std::countr_zero(mask) : -1;
        }
        const uint8_t ctrl = controlOf(tag);
        if (grouped()) {
            for (size_t g = 0; g < config_.ways; g += 16) {
                for (unsigned m = matchGroup(&ctrl_[base + g], ctrl);
                     m != 0; m &= m - 1) {
                    const size_t w = g + static_cast<size_t>(
                                                 std::countr_zero(m));
                    if (tagOf(keys_[base + w]) == tag)
                        return static_cast<int>(w);
                }
            }
            return -1;
        }
        for (size_t w = 0; w < config_.ways; ++w) {
            if (ctrl_[base + w] == ctrl && tagOf(keys_[base + w]) == tag)
                return static_cast<int>(w);
        }
        return -1;
    }

    /**
     * Index into entries_ of slot @p slot = set * ways + way: way w of
     * set s lives at w * sets_ + s (see the class comment). A
     * power-of-two way count splits the slot with a mask and a shift,
     * any other with a division.
     */
    size_t
    payloadOf(size_t slot) const
    {
        if (!divideWays_)
            return (slot & wayMask_) * sets_ + (slot >> wayShift_);
        const size_t set = slot / config_.ways;
        return (slot - set * config_.ways) * sets_ + set;
    }

    size_t
    setOf(uint64_t key) const
    {
        // Hardware-style indexing: fold the high key bits into the
        // low ones and take the low bits. Small sequential keys (PCs)
        // land in adjacent sets — the locality a real PC-indexed
        // table has — while already-hashed context keys stay spread.
        // A power-of-two set count (the common case) masks instead
        // of dividing.
        const uint64_t folded = key ^ (key >> 32) ^ (key >> 16);
        return setMask_ != 0 ? static_cast<size_t>(folded & setMask_)
                             : static_cast<size_t>(folded % sets_);
    }

    uint64_t
    nextRandom()
    {
        // xorshift64: deterministic across runs and platforms.
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 7;
        rng_ ^= rng_ << 17;
        return rng_;
    }

    /** The first slot of the set at @p base whose byte in @p bytes
     *  (ctrl_ or ranks_) equals @p byte, or SIZE_MAX. */
    size_t
    firstByte(const uint8_t *bytes, size_t base, uint8_t byte) const
    {
        if (grouped()) {
            for (size_t g = 0; g < config_.ways; g += 16) {
                const unsigned m = matchGroup(bytes + base + g, byte);
                if (m != 0)
                    return base + g +
                           static_cast<size_t>(std::countr_zero(m));
            }
            return SIZE_MAX;
        }
        for (size_t w = 0; w < config_.ways; ++w) {
            if (bytes[base + w] == byte)
                return base + w;
        }
        return SIZE_MAX;
    }

    /**
     * The slot an insert into the set at @p base takes: its first
     * empty way, else the victim of the full set. The victim of an
     * LRU or FIFO set is its way ranked ways - 1, which exists because
     * a full set's ranks are a permutation of 0..ways-1 (see the class
     * comment); a random table draws it.
     */
    size_t
    insertSlot(size_t base)
    {
        const size_t empty = firstByte(ctrl_.data(), base, 0);
        if (empty != SIZE_MAX) {
            ++live_;
            return empty;
        }
        ++evictions_;
        if (config_.replacement == Replacement::Random)
            return base + nextRandom() % config_.ways;
        return firstByte(ranks_.data(), base,
                         static_cast<uint8_t>(config_.ways - 1));
    }

    /** Backing store for the flat slot arrays, paged as the key kind
     *  calls for (core/hugepage.hh). */
    template <typename T>
    using Array = std::vector<T, HugePageAllocator<T, Keys>>;

    /** The payload array's allocator: element destruction is left to
     *  ~BoundedTable, which knows which slots are live. */
    template <typename T>
    struct SlotAllocator : HugePageAllocator<T, Keys>
    {
        using HugePageAllocator<T, Keys>::HugePageAllocator;

        template <typename U>
        struct rebind
        {
            using other = SlotAllocator<U>;
        };

        template <typename U>
        void
        destroy(U *) noexcept
        {
        }
    };

    BoundedTableConfig config_;
    // Structure-of-arrays slot storage (see the class comment): the
    // probe loop reads ctrl_ and the keys_ it selects; entries_ is
    // touched on hits and victims, ranks_ on refreshing touches and
    // victim lookups. All but entries_ are set-major.
    Array<uint64_t> keys_;
    Array<uint8_t> ranks_;      ///< recency (set-assoc LRU/FIFO only)
    Array<uint8_t> ctrl_;                   ///< 0 = empty (see class doc)
    std::vector<Entry, SlotAllocator<Entry>> entries_;  ///< way-major
    size_t sets_ = 0;
    size_t setMask_ = 0;                            // sets_ - 1 if pow2
    size_t wayMask_ = 0;                            // ways - 1 if pow2
    unsigned wayShift_ = 0;                         // log2(ways) if pow2
    bool divideWays_ = false;                       // ways not pow2
    uint64_t tagMask_ = 0;                          // 0 = full-key tags
    size_t live_ = 0;
    uint64_t evictions_ = 0;
    // Shadow aliasing accounting; peek() is const on *observable*
    // state, so the peek-side counter is mutable like an rng would be.
    mutable uint64_t aliasedPeeks_ = 0;
    uint64_t aliasedTouches_ = 0;
    uint64_t aliasConstructive_ = 0;
    uint64_t aliasDestructive_ = 0;
    // Probe-depth distribution (mutable: const peeks probe too).
    mutable uint64_t probes_ = 0;
    mutable std::array<uint64_t, BoundedTableTelemetry::maxDepth + 1>
            probeDepth_{};
    uint64_t rng_;
};

} // namespace vp::core

#endif // VP_CORE_BOUNDED_TABLE_HH
