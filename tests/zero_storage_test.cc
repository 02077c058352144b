/**
 * @file
 * The zero-is-empty storage contract behind the bounded tables
 * (core/hugepage.hh):
 *
 *  - every type that opts into ZeroInitialised is an aggregate whose
 *    value-initialised state is all-zero bytes, so zeroed storage
 *    already holds one;
 *  - HugePageAllocator hands out zeroed storage on the small (calloc)
 *    rung and, at and above 2 MiB, under both page advices (huge
 *    pages for hashed keys, 4 KiB pages for PC-indexed ones), also
 *    when a block is reused;
 *  - FcmFollowers::CellList behaves like a std::vector<Cell> through
 *    spills, copies, moves, clear() and eraseIf(), and an all-zero
 *    FcmFollowers is empty;
 *  - a clear()ed BoundedTable and a fresh one evolve identically
 *    under every replacement policy;
 *  - a table of spilled follower lists that saw evictions and a
 *    clear() tears down without leaking, although its destructor
 *    skips runs of slots with no valid slot (the leak check needs the
 *    sanitizer build, -DVP_SANITIZE=ON).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <new>
#include <random>
#include <type_traits>
#include <utility>
#include <vector>

#include "core/bounded.hh"
#include "core/bounded_table.hh"
#include "core/fcm.hh"
#include "core/hugepage.hh"
#include "core/hybrid.hh"
#include "core/last_value.hh"
#include "core/stride.hh"

namespace vp::core {

/** Names the private opted-in entry types (friend of each owner). */
struct ZeroStorageAccess
{
    using VhtEntry = BoundedFcmPredictor::VhtEntry;
    using ChooserEntry = HybridPredictor::ChooserEntry;
};

} // namespace vp::core

namespace {

using namespace vp;
using namespace vp::core;

using Cell = FcmFollowers::Cell;

/** T{} built over zeroed bytes leaves every byte zero. */
template <typename T>
bool
valueInitIsAllZero()
{
    alignas(T) unsigned char bytes[sizeof(T)] = {};
    T *object = ::new (static_cast<void *>(bytes)) T{};
    bool zero = true;
    for (unsigned char b : bytes)
        zero = zero && b == 0;
    object->~T();
    return zero;
}

template <typename T>
void
expectZeroIsEmpty(const char *name)
{
    EXPECT_TRUE(ZeroInitialised<T>::value) << name;
    EXPECT_TRUE(std::is_integral_v<T> || std::is_aggregate_v<T>) << name;
    EXPECT_TRUE(valueInitIsAllZero<T>()) << name;
}

TEST(ZeroStorage, OptedInTypesValueInitialiseToZeroBytes)
{
    expectZeroIsEmpty<uint64_t>("uint64_t");
    expectZeroIsEmpty<uint8_t>("uint8_t");
    expectZeroIsEmpty<LvEntry>("LvEntry");
    expectZeroIsEmpty<StrideEntry>("StrideEntry");
    expectZeroIsEmpty<ZeroStorageAccess::VhtEntry>("VhtEntry");
    expectZeroIsEmpty<ZeroStorageAccess::ChooserEntry>("ChooserEntry");
    expectZeroIsEmpty<FcmFollowers>("FcmFollowers");
}

TEST(ZeroStorage, OtherTypesAreNotOptedIn)
{
    EXPECT_FALSE(ZeroInitialised<FcmFollowers::CellList>::value);
    EXPECT_FALSE(ZeroInitialised<Cell>::value);
    EXPECT_FALSE(ZeroInitialised<std::vector<uint64_t>>::value);
    EXPECT_FALSE(ZeroInitialised<double>::value);
}

/** Allocate @p n, check zero, dirty, free; twice, so the second
 *  round may be handed the block the first one dirtied. */
template <KeyKind Keys = KeyKind::Hashed>
void
expectZeroedAcrossReuse(size_t n)
{
    HugePageAllocator<uint64_t, Keys> alloc;
    for (int round = 0; round < 2; ++round) {
        uint64_t *p = alloc.allocate(n);
        ASSERT_NE(p, nullptr);
        for (size_t i = 0; i < n; ++i)
            ASSERT_EQ(p[i], 0u) << "n=" << n << " round=" << round
                                << " i=" << i;
        std::memset(p, 0xa5, n * sizeof(uint64_t));
        alloc.deallocate(p, n);
    }
}

constexpr size_t kHugePageWords =
        HugePageAllocator<uint64_t, KeyKind::Hashed>::hugePage / 8;

TEST(ZeroStorage, AllocatorZeroesTheSmallRung)
{
    expectZeroedAcrossReuse(1);
    expectZeroedAcrossReuse(1000);
    // Just under one huge page: still the calloc rung.
    expectZeroedAcrossReuse(kHugePageWords - 1);
}

TEST(ZeroStorage, AllocatorZeroesTheHugePageRung)
{
    expectZeroedAcrossReuse(kHugePageWords);
    expectZeroedAcrossReuse(kHugePageWords * 2 + 3);
}

/** PC-indexed arrays of 2 MiB and more are mapped with no huge
 *  pages: the same zero-filled contract, on 4 KiB pages. */
TEST(ZeroStorage, AllocatorZeroesThePcIndexedRung)
{
    expectZeroedAcrossReuse<KeyKind::PcIndexed>(kHugePageWords);
    expectZeroedAcrossReuse<KeyKind::PcIndexed>(kHugePageWords * 2 + 3);
}

TEST(ZeroStorage, ResizeOfAZeroInitialisedVectorYieldsValueInitialised)
{
    using Allocator = HugePageAllocator<StrideEntry, KeyKind::PcIndexed>;
    std::vector<StrideEntry, Allocator> small(100);
    std::vector<StrideEntry, Allocator> large(1 << 17);
    for (const auto *v : {&small, &large}) {
        for (const StrideEntry &e : *v) {
            ASSERT_EQ(e.last, 0u);
            ASSERT_EQ(e.s1, 0);
            ASSERT_EQ(e.s2, 0);
            ASSERT_FALSE(e.haveDelta);
            ASSERT_EQ(e.counter, 0);
        }
    }
    // A type that is not opted in is still constructed.
    std::vector<std::vector<int>,
                HugePageAllocator<std::vector<int>, KeyKind::Hashed>>
            nested(8);
    for (const auto &inner : nested)
        EXPECT_TRUE(inner.empty());
}

// ------------------------------------------------------------ CellList

std::vector<Cell>
cellsOf(const FcmFollowers::CellList &list)
{
    return {list.begin(), list.end()};
}

void
expectSameCells(const FcmFollowers::CellList &list,
                const std::vector<Cell> &model)
{
    ASSERT_EQ(list.size(), model.size());
    EXPECT_EQ(list.empty(), model.empty());
    const std::vector<Cell> got = cellsOf(list);
    for (size_t i = 0; i < model.size(); ++i) {
        EXPECT_EQ(got[i].value, model[i].value) << i;
        EXPECT_EQ(got[i].count, model[i].count) << i;
        EXPECT_EQ(got[i].seq, model[i].seq) << i;
    }
}

TEST(ZeroStorage, ZeroFilledFollowersAreEmpty)
{
    alignas(FcmFollowers) unsigned char bytes[sizeof(FcmFollowers)] = {};
    // Zeroed storage is a live FcmFollowers without a constructor
    // call, as in a table fresh from HugePageAllocator.
    auto *followers = std::launder(reinterpret_cast<FcmFollowers *>(bytes));
    EXPECT_TRUE(followers->cells.empty());
    EXPECT_EQ(followers->best(), nullptr);
    std::vector<Cell> model;
    for (uint64_t v = 0; v < 5; ++v) {
        followers->cells.push_back({v, 1, v});
        model.push_back({v, 1, v});
    }
    expectSameCells(followers->cells, model);
    followers->~FcmFollowers();
}

TEST(ZeroStorage, CellListMatchesAVectorModel)
{
    std::mt19937_64 rng(7);
    for (uint32_t n = 0; n <= 4 * FcmFollowers::CellList::kInline + 3;
         ++n) {
        FcmFollowers::CellList list;
        std::vector<Cell> model;
        for (uint32_t i = 0; i < n; ++i) {
            const Cell cell{rng() % 5, static_cast<uint32_t>(i + 1), i};
            list.push_back(cell);
            model.push_back(cell);
            expectSameCells(list, model);
        }

        FcmFollowers::CellList copy(list);
        expectSameCells(copy, model);
        FcmFollowers::CellList assigned;
        assigned.push_back({99, 9, 9});
        assigned = list;
        expectSameCells(assigned, model);

        FcmFollowers::CellList moved(std::move(copy));
        expectSameCells(moved, model);
        EXPECT_TRUE(copy.empty());
        // A moved-from list is reusable.
        copy.push_back({1, 1, 1});
        expectSameCells(copy, std::vector<Cell>{Cell{1, 1, 1}});

        FcmFollowers::CellList move_assigned;
        move_assigned = std::move(assigned);
        expectSameCells(move_assigned, model);

        const auto odd = [](const Cell &c) { return c.value % 2 == 1; };
        list.eraseIf(odd);
        std::erase_if(model, odd);
        expectSameCells(list, model);
        // Growing again after an erase reuses or regrows the storage.
        for (uint32_t i = 0; i < 3; ++i) {
            list.push_back({100 + i, 1, 100 + i});
            model.push_back({100 + i, 1, 100 + i});
        }
        expectSameCells(list, model);

        list.clear();
        model.clear();
        expectSameCells(list, model);
        list.push_back({5, 5, 5});
        expectSameCells(list, std::vector<Cell>{Cell{5, 5, 5}});
    }
}

// ------------------------------------------------------- BoundedTable

/** Everything a touch sequence observes of a table. */
struct Observed
{
    std::vector<int> inserted;
    std::vector<uint64_t> values;
    BoundedTableTelemetry telemetry;
};

Observed
drive(BoundedTable<LvEntry, KeyKind::PcIndexed> &table, uint64_t seed)
{
    std::mt19937_64 rng(seed);
    Observed out;
    for (int i = 0; i < 4000; ++i) {
        const uint64_t key = rng() % 160;
        bool inserted = false;
        LvEntry &entry = table.touch(key, inserted);
        out.inserted.push_back(inserted);
        out.values.push_back(entry.value);
        entry.value = key * 1000 + static_cast<uint64_t>(i);
        const LvEntry *seen = table.peek(rng() % 160);
        out.values.push_back(seen != nullptr ? seen->value : ~0ull);
    }
    out.telemetry = table.telemetry();
    return out;
}

TEST(ZeroStorage, ClearedTableMatchesAFreshOne)
{
    for (const Replacement policy :
         {Replacement::Lru, Replacement::Fifo, Replacement::Random}) {
        for (const size_t ways : {size_t{4}, size_t{16}}) {
            const BoundedTableConfig config{
                    .entries = 64, .ways = ways, .replacement = policy};
            BoundedTable<LvEntry, KeyKind::PcIndexed> fresh(config);
            BoundedTable<LvEntry, KeyKind::PcIndexed> cleared(config);
            drive(cleared, 99);
            cleared.clear();
            const Observed a = drive(fresh, 1);
            const Observed b = drive(cleared, 1);
            const auto label = ::testing::Message()
                               << "policy=" << static_cast<int>(policy)
                               << " ways=" << ways;
            EXPECT_EQ(a.inserted, b.inserted) << label;
            EXPECT_EQ(a.values, b.values) << label;
            EXPECT_EQ(a.telemetry.live, b.telemetry.live) << label;
            EXPECT_EQ(a.telemetry.evictions, b.telemetry.evictions)
                    << label;
            EXPECT_GT(a.telemetry.evictions, 0u) << label;
            EXPECT_EQ(a.telemetry.probes, b.telemetry.probes) << label;
            EXPECT_EQ(a.telemetry.probeDepth, b.telemetry.probeDepth)
                    << label;
        }
    }
}

/**
 * Teardown skips runs of slots with no valid slot, so no slot may own
 * heap cells once it is invalid: not after an eviction, not after a
 * clear(). Spilled lists fill the whole table, a clear() drops them,
 * and a short refill spills lists in a few runs only, so teardown
 * skips most of the table. Under LeakSanitizer a slot that kept its
 * cells fails the run at exit.
 */
TEST(ZeroStorage, SpilledFollowerTablesTearDownClean)
{
    for (const Replacement policy :
         {Replacement::Lru, Replacement::Fifo, Replacement::Random}) {
        for (const size_t ways : {size_t{4}, size_t{16}}) {
            const BoundedTableConfig config{
                    .entries = 1024, .ways = ways, .replacement = policy};
            const auto label = ::testing::Message()
                               << "policy=" << static_cast<int>(policy)
                               << " ways=" << ways;
            BoundedTable<FcmFollowers, KeyKind::Hashed> table(config);
            std::mt19937_64 rng(7);
            const auto fill = [&](uint64_t keys, uint64_t touches) {
                uint32_t longest = 0;
                for (uint64_t i = 0; i < touches; ++i) {
                    bool inserted = false;
                    FcmFollowers &followers =
                            table.touch(rng() % keys, inserted);
                    followers.bump(rng() % 9, i, 0);
                    longest = std::max(longest, followers.cells.size());
                }
                return longest;
            };
            EXPECT_GT(fill(3000, 20000), FcmFollowers::CellList::kInline)
                    << label;
            EXPECT_GT(table.evictions(), 0u) << label;
            table.clear();
            EXPECT_GT(fill(20, 300), FcmFollowers::CellList::kInline)
                    << label;
            EXPECT_LE(table.size(), 20u) << label;
        }
    }
}

} // namespace
