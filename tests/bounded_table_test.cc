/**
 * @file
 * Differential test of BoundedTable's control-byte probe and rank-byte
 * recency (core/bounded_table.hh) against a test-local model of the
 * plain table they replaced: one valid byte per slot, a scan of the
 * set's ways in ascending order, and a 64-bit age stamp per slot whose
 * minimum names the victim.
 *
 * After every step the two must agree on the hit way, the inserted
 * and aliased flags, the payload the step reads, and every counter
 * the table keeps (live entries, evictions, alias counts, probes and
 * the probe-depth histogram). The streams cover every probe shape —
 * 1, 2, 4 and 8 ways (scalar or 4-way branchless), 16 and 32 ways
 * (groups of 16 control bytes), 3 and 12 ways — under full and
 * partial tags and every
 * replacement policy, plus sets whose live keys all share one control
 * byte. They train through touch(), through a peekSlot() then
 * touchAt() of the slot it found, and through a peekSlot() miss then
 * insertMiss() into the set it reported, so the rank update and the
 * last-ranked victim meet the stamp model's victims at every width.
 * The carried misses also come in pairs, as the fcm batch loop trains
 * two orders of one event: the second key is probed again when the
 * first one's training landed in its set, where with partial tags the
 * first insert can turn the second key into an aliased hit. A 255-way
 * set, the widest a rank byte can order, runs the loop at its bounds.
 *
 * A second test fills tables of heap-spilling FcmFollowers payloads
 * under insert and evict churn, on power-of-two and other way and set
 * counts, so both slot -> payload mappings (mask and shift, and
 * division) and the live-only teardown run; under -DVP_SANITIZE=ON a
 * leaked or doubly freed follower list fails it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <map>
#include <random>
#include <vector>

#include "core/bounded_table.hh"
#include "core/fcm.hh"

namespace {

using namespace vp::core;

using Table = BoundedTable<uint64_t, KeyKind::Hashed>;

/** The reference: valid bytes and an in-order scan of the set. */
class ScanModel
{
  public:
    explicit ScanModel(const BoundedTableConfig &config)
        : config_(config), keys_(config.entries), stamps_(config.entries),
          valid_(config.entries), values_(config.entries),
          sets_(config.entries / config.ways), rng_(config.seed | 1)
    {
        if (config.tagBits > 0)
            tagMask_ = (uint64_t{1} << config.tagBits) - 1;
    }

    /** The slot @p key hits, or SIZE_MAX; counted as a probe. */
    size_t
    peek(uint64_t key)
    {
        const size_t slot = find(key);
        if (slot != SIZE_MAX && keys_[slot] != key)
            ++telemetry.aliasedPeeks;
        return slot;
    }

    /** A touch; returns the slot @p key now occupies. */
    size_t
    touch(uint64_t key, bool &inserted, bool &aliased)
    {
        size_t slot = find(key);
        inserted = slot == SIZE_MAX;
        if (!inserted) {
            touchAt(slot, key, aliased);
            return slot;
        }
        aliased = false;
        slot = victim(key);
        if (config_.replacement != Replacement::Random)
            stamps_[slot] = ++tick_;
        keys_[slot] = key;
        valid_[slot] = 1;
        values_[slot] = 0;
        return slot;
    }

    /** A hit's touch of @p slot, found by a probe of @p key. */
    void
    touchAt(size_t slot, uint64_t key, bool &aliased)
    {
        if (config_.replacement == Replacement::Lru)
            stamps_[slot] = ++tick_;
        aliased = keys_[slot] != key;
        if (aliased) {
            ++telemetry.aliasedTouches;
            keys_[slot] = key;
        }
    }

    /** Take back the probe of a whole-set miss: a carried insert
     *  counts none, as its peek already counted the miss. */
    void
    uncountMiss()
    {
        --telemetry.probes;
        --telemetry.probeDepth[std::min(config_.ways,
                                        BoundedTableTelemetry::maxDepth)];
    }

    uint64_t &value(size_t slot) { return values_[slot]; }

    /** live, evictions, alias and probe counts, as the table keeps. */
    BoundedTableTelemetry telemetry;

  private:
    uint64_t
    tagOf(uint64_t key) const
    {
        return tagMask_ != 0 ? key & tagMask_ : key;
    }

    size_t
    setBase(uint64_t key) const
    {
        const uint64_t folded = key ^ (key >> 32) ^ (key >> 16);
        return static_cast<size_t>(folded % sets_) * config_.ways;
    }

    void
    noteProbe(size_t depth)
    {
        ++telemetry.probes;
        ++telemetry.probeDepth[std::min(depth,
                                        BoundedTableTelemetry::maxDepth)];
    }

    size_t
    find(uint64_t key)
    {
        const size_t base = setBase(key);
        for (size_t w = 0; w < config_.ways; ++w) {
            if (valid_[base + w] && tagOf(keys_[base + w]) == tagOf(key)) {
                noteProbe(w + 1);
                return base + w;
            }
        }
        noteProbe(config_.ways);
        return SIZE_MAX;
    }

    uint64_t
    nextRandom()
    {
        rng_ ^= rng_ << 13;
        rng_ ^= rng_ >> 7;
        rng_ ^= rng_ << 17;
        return rng_;
    }

    /** Oldest stamp among [first, first + n), first one on ties. */
    size_t
    oldest(size_t first, size_t n) const
    {
        size_t best = first;
        for (size_t s = first; s < first + n; ++s) {
            if (stamps_[s] < stamps_[best])
                best = s;
        }
        return best;
    }

    size_t
    victim(uint64_t key)
    {
        const bool random = config_.replacement == Replacement::Random;
        const size_t base = setBase(key);
        for (size_t w = 0; w < config_.ways; ++w) {
            if (!valid_[base + w]) {
                ++telemetry.live;
                return base + w;
            }
        }
        ++telemetry.evictions;
        return random ? base + nextRandom() % config_.ways
                      : oldest(base, config_.ways);
    }

    BoundedTableConfig config_;
    std::vector<uint64_t> keys_;
    std::vector<uint64_t> stamps_;
    std::vector<uint8_t> valid_;
    std::vector<uint64_t> values_;
    size_t sets_;
    uint64_t tagMask_ = 0;
    uint64_t tick_ = 0;
    uint64_t rng_;
};

/** Drives a table and the model with one key stream, step by step. */
class Differential
{
  public:
    explicit Differential(const BoundedTableConfig &config)
        : table_(config), model_(config)
    {
    }

    void
    peek(uint64_t key)
    {
        size_t slot = SIZE_MAX;
        const uint64_t *entry = table_.peekSlot(key, slot);
        const size_t want = model_.peek(key);
        ASSERT_EQ(entry != nullptr, want != SIZE_MAX) << "key " << key;
        if (entry != nullptr) {
            EXPECT_EQ(slot, want) << "key " << key;
            EXPECT_EQ(*entry, model_.value(want)) << "key " << key;
        }
        expectSameCounters();
    }

    /** A touch, then a peekSlot() of the same key on both sides (a
     *  counted probe each) to check the slot it landed in. */
    void
    touch(uint64_t key, uint64_t stamp)
    {
        bool inserted = false, aliased = false;
        uint64_t &entry = table_.touch(key, inserted, &aliased);
        bool want_inserted = false, want_aliased = false;
        const size_t want = model_.touch(key, want_inserted, want_aliased);
        ASSERT_EQ(inserted, want_inserted) << "key " << key;
        EXPECT_EQ(aliased, want_aliased) << "key " << key;
        size_t slot = SIZE_MAX;
        EXPECT_NE(table_.peekSlot(key, slot), nullptr) << "key " << key;
        EXPECT_EQ(slot, want) << "key " << key;
        EXPECT_EQ(model_.peek(key), want) << "key " << key;
        EXPECT_EQ(entry, model_.value(want)) << "key " << key;
        entry = stamp;
        model_.value(want) = stamp;
        expectSameCounters();
    }

    /**
     * A peekSlot(), then on a hit a touchAt() of the slot it found, as
     * the fcm fast path trains. On a miss, an insertMiss() into the set
     * the peek reported when @p carried, as the fcm loop trains a
     * carried scan miss; otherwise a touch().
     */
    void
    retouch(uint64_t key, uint64_t stamp, bool carried)
    {
        size_t slot = SIZE_MAX;
        const bool hit = table_.peekSlot(key, slot) != nullptr;
        const size_t want = model_.peek(key);
        ASSERT_EQ(hit, want != SIZE_MAX) << "key " << key;
        if (hit || carried)
            train(key, slot, want, stamp);
        else
            touch(key, stamp);
    }

    /**
     * Two carried keys as two orders of one event train them: both
     * are peeked first, then trained in order. The second key's miss
     * is carried only when the first key's training landed in another
     * set; otherwise it is probed again with touch().
     */
    void
    carryPair(uint64_t first, uint64_t second, uint64_t stamp)
    {
        size_t slots[2] = {SIZE_MAX, SIZE_MAX};
        const bool hits[2] = {
                table_.peekSlot(first, slots[0]) != nullptr,
                table_.peekSlot(second, slots[1]) != nullptr};
        const size_t wants[2] = {model_.peek(first), model_.peek(second)};
        ASSERT_EQ(hits[0], wants[0] != SIZE_MAX) << "key " << first;
        ASSERT_EQ(hits[1], wants[1] != SIZE_MAX) << "key " << second;
        const size_t ways = table_.config().ways;
        train(first, slots[0], wants[0], stamp);
        if (::testing::Test::HasFatalFailure())
            return;
        if (slots[0] / ways == slots[1] / ways)
            touch(second, stamp);
        else
            train(second, slots[1], wants[1], stamp);
    }

    const BoundedTableTelemetry &model() const { return model_.telemetry; }

  private:
    /**
     * Train @p key after its peekSlot() reported @p slot and the
     * model's peek the slot @p peeked (SIZE_MAX on a miss): on a hit a
     * touchAt() of both, else an insertMiss() against the model's
     * touch(), less the probe the insert does not count.
     */
    void
    train(uint64_t key, size_t slot, size_t peeked, uint64_t stamp)
    {
        bool aliased = false, want_aliased = false;
        size_t want = peeked;
        uint64_t *entry = nullptr;
        if (peeked != SIZE_MAX) {
            ASSERT_EQ(slot, peeked) << "key " << key;
            entry = &table_.touchAt(slot, key, &aliased);
            model_.touchAt(want, key, want_aliased);
        } else {
            entry = &table_.insertMiss(slot, key);
            bool want_inserted = false;
            want = model_.touch(key, want_inserted, want_aliased);
            ASSERT_TRUE(want_inserted) << "key " << key;
            model_.uncountMiss();
        }
        EXPECT_EQ(aliased, want_aliased) << "key " << key;
        EXPECT_EQ(*entry, model_.value(want)) << "key " << key;
        *entry = stamp;
        model_.value(want) = stamp;
        // Where the key landed, as touch() checks it.
        size_t landed = SIZE_MAX;
        EXPECT_NE(table_.peekSlot(key, landed), nullptr) << "key " << key;
        EXPECT_EQ(landed, want) << "key " << key;
        EXPECT_EQ(model_.peek(key), want) << "key " << key;
        expectSameCounters();
    }

    void
    expectSameCounters() const
    {
        const BoundedTableTelemetry got = table_.telemetry();
        const BoundedTableTelemetry &want = model_.telemetry;
        EXPECT_EQ(got.live, want.live);
        EXPECT_EQ(got.evictions, want.evictions);
        EXPECT_EQ(got.aliasedPeeks, want.aliasedPeeks);
        EXPECT_EQ(got.aliasedTouches, want.aliasedTouches);
        EXPECT_EQ(got.probes, want.probes);
        EXPECT_EQ(got.probeDepth, want.probeDepth);
    }

    Table table_;
    ScanModel model_;
};

const Replacement kPolicies[] = {Replacement::Lru, Replacement::Fifo,
                                 Replacement::Random};

TEST(BoundedTable, ControlByteProbeMatchesTheScan)
{
    for (const size_t ways : {size_t{1}, size_t{2}, size_t{3}, size_t{4},
                              size_t{8}, size_t{12}, size_t{16},
                              size_t{32}}) {
        for (const int tag_bits : {0, 4, 8, 16}) {
            for (const Replacement policy : kPolicies) {
                SCOPED_TRACE(::testing::Message()
                             << "ways=" << ways << " tagBits=" << tag_bits
                             << " policy=" << static_cast<int>(policy));
                // 256 entries, or 255 and 252 (85 and 21 sets) for
                // the way counts that do not divide it.
                const BoundedTableConfig config{
                        .entries = 256 / ways * ways,
                        .ways = ways,
                        .replacement = policy,
                        .tagBits = tag_bits};
                Differential run(config);
                std::mt19937_64 rng(ways * 131 + tag_bits * 7 +
                                    static_cast<uint64_t>(policy));
                // Half small PC-like keys, half spread hashed ones,
                // from a domain twice the capacity: hits, misses and
                // evictions all occur.
                const auto draw = [&] {
                    const uint64_t k = rng() % 512;
                    return k % 2 == 0 ? k : k * 0x9e3779b97f4a7c15ull;
                };
                for (uint64_t step = 0; step < 3000; ++step) {
                    const uint64_t op = rng() % 10;
                    if (op < 2)
                        run.peek(draw());
                    else if (op < 4)
                        run.retouch(draw(), step, false);
                    else if (op < 5)
                        run.retouch(draw(), step, true);
                    else if (op < 6) {
                        const uint64_t first = draw();
                        run.carryPair(first, draw(), step);
                    }
                    else
                        run.touch(draw(), step);
                    if (::testing::Test::HasFatalFailure())
                        return;
                }
                // Full tags evict; where partial tags name no more
                // entries than a set holds, keys alias instead.
                EXPECT_GT(run.model().evictions +
                                  run.model().aliasedTouches,
                          0u);
                EXPECT_GT(run.model().probeDepth[1], 0u);
            }
        }
    }
}

/**
 * A rank byte orders at most 255 ways: a wider table, like one of no
 * ways, is refused at build, and a 255-way set, whose ranks reach 254, keeps
 * the stamp model's LRU and FIFO victims.
 */
TEST(BoundedTable, RankBytesOrderAtMost255Ways)
{
    EXPECT_NO_THROW(Table({.entries = 510, .ways = 255}));
    EXPECT_THROW(Table({.entries = 512, .ways = 256}),
                 std::invalid_argument);
    EXPECT_THROW(Table({.entries = 512, .ways = 0}), std::invalid_argument);
    for (const Replacement policy : kPolicies) {
        SCOPED_TRACE(::testing::Message()
                     << "policy=" << static_cast<int>(policy));
        Differential run({.entries = 255, .ways = 255,
                          .replacement = policy});
        std::mt19937_64 rng(255 + static_cast<uint64_t>(policy));
        for (uint64_t step = 0; step < 3000; ++step) {
            const uint64_t key = rng() % 320;
            const uint64_t op = rng() % 4;
            if (op == 0)
                run.retouch(key, step, false);
            else if (op == 1)
                run.retouch(key, step, true);
            else if (op == 2) {
                const uint64_t second = rng() % 320;
                run.carryPair(key, second, step);
            }
            else
                run.touch(key, step);
            if (::testing::Test::HasFatalFailure())
                return;
        }
        EXPECT_EQ(run.model().live, 255u);
        EXPECT_GT(run.model().evictions, 0u);
    }
}

/**
 * Keys that share one control byte in one set: the byte compare
 * selects every way, so only the key compare tells them apart, and
 * the first match in way order must win. With 8-bit tags the keys
 * also alias: several full keys per tag.
 */
TEST(BoundedTable, KeysSharingAControlByteResolveByTag)
{
    for (const size_t ways : {size_t{16}, size_t{32}}) {
        for (const int tag_bits : {0, 8}) {
            for (const Replacement policy : kPolicies) {
                SCOPED_TRACE(::testing::Message()
                             << "ways=" << ways << " tagBits=" << tag_bits
                             << " policy=" << static_cast<int>(policy));
                // One set, so every key lands in it.
                const BoundedTableConfig config{.entries = ways,
                                                .ways = ways,
                                                .replacement = policy,
                                                .tagBits = tag_bits};
                const uint64_t tag_space =
                        tag_bits == 0 ? uint64_t{1} << 20 : 256;
                // The byte most tags share, and up to 40 of them.
                std::vector<size_t> count(256, 0);
                for (uint64_t t = 0; t < tag_space; ++t)
                    ++count[Table::controlOf(t)];
                const uint8_t shared = static_cast<uint8_t>(
                        std::max_element(count.begin(), count.end()) -
                        count.begin());
                std::vector<uint64_t> tags;
                for (uint64_t t = 0; t < tag_space && tags.size() < 40; ++t) {
                    if (Table::controlOf(t) == shared)
                        tags.push_back(t);
                }
                ASSERT_GE(tags.size(), 3u);
                std::vector<uint64_t> keys;
                for (const uint64_t tag : tags) {
                    keys.push_back(tag);
                    if (tag_bits != 0) {
                        for (uint64_t high = 1; high < 6; ++high)
                            keys.push_back(tag | high << tag_bits);
                    }
                }

                Differential run(config);
                std::mt19937_64 rng(ways + tag_bits);
                for (uint64_t step = 0; step < 4000; ++step) {
                    const uint64_t key = keys[rng() % keys.size()];
                    const uint64_t op = rng() % 3;
                    if (op == 0)
                        run.peek(key);
                    else if (op == 1)
                        run.retouch(key, step, true);
                    else
                        run.touch(key, step);
                    if (::testing::Test::HasFatalFailure())
                        return;
                }
                // The set filled with keys of one control byte.
                EXPECT_EQ(run.model().live, std::min(ways, tags.size()));
                if (tags.size() > ways)
                    EXPECT_GT(run.model().evictions, 0u);
            }
        }
    }
}

/** A payload's follower values and counts, in value order. */
std::map<uint64_t, uint32_t>
cellsOf(const FcmFollowers &followers)
{
    std::map<uint64_t, uint32_t> cells;
    for (const auto &cell : followers.cells)
        cells[cell.value] = cell.count;
    return cells;
}

/**
 * Every live key's payload reads back as last written, across
 * inserts, evictions and a clear(). Each key collects up to five
 * distinct followers, so most payloads spill their cells to the heap
 * (FcmFollowers::CellList keeps two inline), and the table is torn
 * down with such payloads live.
 */
TEST(BoundedTable, PayloadsReadBackUnderChurn)
{
    struct Geometry
    {
        size_t entries;
        size_t ways;
    };
    // Mask-and-shift (4, 16 ways) and division (3, 12 ways) mappings,
    // with power-of-two and other set counts.
    const Geometry geometries[] = {{64, 4},  {40, 4},  {64, 16}, {48, 16},
                                   {96, 3},  {45, 3},  {96, 12}, {60, 12}};
    for (const Geometry &g : geometries) {
        for (const Replacement policy : kPolicies) {
            SCOPED_TRACE(::testing::Message()
                         << "entries=" << g.entries << " ways=" << g.ways
                         << " policy=" << static_cast<int>(policy));
            BoundedTable<FcmFollowers, KeyKind::Hashed> table(
                    {.entries = g.entries,
                     .ways = g.ways,
                     .replacement = policy});
            std::map<uint64_t, std::map<uint64_t, uint32_t>> model;
            std::mt19937_64 rng(g.entries * 17 + g.ways);
            uint64_t evicted = 0;
            for (uint64_t step = 0; step < 3000; ++step) {
                if (step == 1500) {
                    table.clear();
                    model.clear();
                }
                // Keys from a domain three times the capacity, half
                // of them spread by a multiplicative hash.
                const uint64_t k = rng() % (3 * g.entries);
                const uint64_t key =
                        k % 2 == 0 ? k : k * 0x9e3779b97f4a7c15ull;
                bool inserted = false;
                FcmFollowers &entry = table.touch(key, inserted);
                if (inserted)
                    model[key].clear();
                ASSERT_EQ(cellsOf(entry), model[key]) << "key " << key;
                const uint64_t value = rng() % 5;
                entry.bump(value, step, 0);
                ++model[key][value];

                // Sweep: a key the table lost was evicted; every
                // other key must still read back as written.
                if (step % 32 == 0) {
                    for (auto it = model.begin(); it != model.end();) {
                        const FcmFollowers *live = table.peek(it->first);
                        if (live == nullptr) {
                            it = model.erase(it);
                            ++evicted;
                            continue;
                        }
                        ASSERT_EQ(cellsOf(*live), it->second)
                                << "key " << it->first;
                        ++it;
                    }
                    EXPECT_EQ(model.size(), table.size());
                }
            }
            EXPECT_GT(evicted, 0u);
            EXPECT_GT(table.evictions(), 0u);
        }
    }
}

TEST(BoundedTable, ControlBytesAreNeverEmptyAndSpreadWithinASet)
{
    for (uint64_t tag = 0; tag < 4096; ++tag) {
        const uint8_t byte = Table::controlOf(tag);
        EXPECT_NE(byte & 0x80, 0) << tag;   // never the empty byte
    }
    // Keys of one 64-set table's set still spread over the bytes.
    std::vector<bool> seen(256, false);
    for (uint64_t k = 0; k < 64 * 512; k += 64)
        seen[Table::controlOf(k)] = true;
    size_t distinct = 0;
    for (const bool s : seen)
        distinct += s ? 1 : 0;
    EXPECT_GT(distinct, 100u);
}

} // namespace
