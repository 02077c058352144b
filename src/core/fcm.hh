/**
 * @file
 * Finite context method (FCM) predictors (Section 2.2 of the paper).
 */

#ifndef VP_CORE_FCM_HH
#define VP_CORE_FCM_HH

#include <cstdint>
#include <span>
#include <unordered_map>
#include <vector>

#include "core/predictor.hh"

namespace vp::core {

/** How predictions of different orders are combined. */
enum class FcmBlending {
    /**
     * No blending: only the exact order-k context is consulted. An
     * order-k predictor then needs a full-length history before it can
     * match anything (used for the Table 1 / Figure 2 analyses).
     */
    None,

    /**
     * Blending with *lazy exclusion* (the paper's configuration): the
     * longest matching context of orders k..0 supplies the prediction,
     * and only the tables of that order and higher are updated.
     */
    LazyExclusion,

    /** Full blending: all orders 0..k are updated on every value. */
    Full
};

/** FCM configuration. */
struct FcmConfig
{
    /** Context length k: number of preceding values used. */
    int order = 3;

    FcmBlending blending = FcmBlending::LazyExclusion;

    /**
     * Counter ceiling. 0 means exact (unbounded) counts, the paper's
     * idealized configuration. A small positive value (say 15) enables
     * the text-compression trick: counts are allowed to reach the
     * ceiling, and when one would exceed it all counters of that
     * context are halved, weighting recent history more heavily.
     */
    uint32_t counterMax = 0;

    friend bool operator==(const FcmConfig &, const FcmConfig &) = default;
};

/**
 * "fcm<K>" plus the variant suffix the spec grammar spells: "-pure"
 * (no blending), "-full" (full blending) or "-sat" (lazy exclusion
 * with a counter ceiling). The name of both fcm predictors and the
 * base of the canonical spec name, so no two fcm variants share one.
 */
std::string fcmVariantName(const FcmConfig &config);

/**
 * Follower frequencies for one context: the bounded two-level
 * predictor's VPT entry (core/bounded.hh), and the plain-scan
 * reference for the unbounded predictor's IndexedFollowers, which
 * must keep the same counting/halving/tie-break behaviour.
 */
struct FcmFollowers
{
    struct Cell
    {
        uint64_t value;
        uint32_t count;
        uint64_t seq;       ///< recency stamp for tie-breaking
    };

    /**
     * Small-buffer cell sequence: the first kInline cells live inside
     * the followers object itself, spilling to the heap only beyond
     * that. Real contexts almost always have 1-2 distinct followers,
     * so keeping them inline means a bounded VPT entry carries its
     * cells in the same (huge-page-backed, prefetchable) table array —
     * a detached heap block per context would cost the hot replay loop
     * one more dependent cache-and-TLB miss per event.
     *
     * An all-zero CellList is a valid empty one (cap_ == 0 stands for
     * the inline capacity), so a zero-filled table of FcmFollowers
     * needs no constructor pass (core/hugepage.hh).
     */
    class CellList
    {
      public:
        static constexpr uint32_t kInline = 2;

        CellList() = default;
        CellList(const CellList &other) { copyFrom(other); }
        CellList(CellList &&other) noexcept { moveFrom(other); }

        CellList &
        operator=(const CellList &other)
        {
            if (this != &other) {
                clear();
                copyFrom(other);
            }
            return *this;
        }

        CellList &
        operator=(CellList &&other) noexcept
        {
            if (this != &other) {
                clear();
                moveFrom(other);
            }
            return *this;
        }

        ~CellList() { delete[] heap_; }

        Cell *data() { return heap_ != nullptr ? heap_ : inline_; }
        const Cell *
        data() const
        {
            return heap_ != nullptr ? heap_ : inline_;
        }

        Cell *begin() { return data(); }
        Cell *end() { return data() + size_; }
        const Cell *begin() const { return data(); }
        const Cell *end() const { return data() + size_; }

        uint32_t size() const { return size_; }
        bool empty() const { return size_ == 0; }

        void
        push_back(const Cell &cell)
        {
            if (size_ == capacity())
                grow();
            data()[size_++] = cell;
        }

        /** Drop every cell matching @p pred, preserving order. */
        template <typename Pred>
        void
        eraseIf(Pred pred)
        {
            Cell *d = data();
            uint32_t kept = 0;
            for (uint32_t i = 0; i < size_; ++i) {
                if (!pred(d[i]))
                    d[kept++] = d[i];
            }
            size_ = kept;
        }

        void
        clear()
        {
            delete[] heap_;
            heap_ = nullptr;
            size_ = 0;
            cap_ = 0;
        }

      private:
        uint32_t capacity() const { return cap_ != 0 ? cap_ : kInline; }

        void
        grow()
        {
            const uint32_t new_cap = capacity() * 2;
            Cell *bigger = new Cell[new_cap];
            const Cell *d = data();
            for (uint32_t i = 0; i < size_; ++i)
                bigger[i] = d[i];
            delete[] heap_;
            heap_ = bigger;
            cap_ = new_cap;
        }

        void
        copyFrom(const CellList &other)
        {
            size_ = other.size_;
            if (size_ > kInline) {
                heap_ = new Cell[other.cap_];
                cap_ = other.cap_;
            }
            const Cell *src = other.data();
            Cell *dst = data();
            for (uint32_t i = 0; i < size_; ++i)
                dst[i] = src[i];
        }

        void
        moveFrom(CellList &other) noexcept
        {
            heap_ = other.heap_;
            size_ = other.size_;
            cap_ = other.cap_;
            if (heap_ == nullptr) {
                for (uint32_t i = 0; i < size_; ++i)
                    inline_[i] = other.inline_[i];
            }
            other.heap_ = nullptr;
            other.size_ = 0;
            other.cap_ = 0;
        }

        Cell inline_[kInline];
        Cell *heap_ = nullptr;
        uint32_t size_ = 0;
        uint32_t cap_ = 0;      ///< heap capacity; 0 while inline
    };

    /** Typically 1-2 distinct followers; linear scan is right. */
    CellList cells;

    /**
     * Record one occurrence of @p value following this context.
     *
     * @p counter_max is the FcmConfig ceiling (0 = exact counts):
     * when a count would exceed it, every counter is halved (zeros
     * pruned, except the cell just bumped, which stays at >= 1).
     * @p max_followers bounds the number of distinct follower cells
     * kept (0 = unbounded); when full, a new follower replaces the
     * lowest-count (ties: least recent) cell.
     *
     * Defined here, like best(), because the bounded fcm's batch loop
     * calls both in its VPT stage, once or twice per event.
     */
    void
    bump(uint64_t value, uint64_t seq, uint32_t counter_max,
         uint32_t max_followers = 0)
    {
        for (auto &cell : cells) {
            if (cell.value == value) {
                ++cell.count;
                cell.seq = seq;
                // Halve when a count would exceed (not reach) the
                // ceiling: counts can then saturate at counter_max
                // exactly, as a counter_max-wide hardware counter
                // would, and the just-bumped cell (now >= 2) always
                // survives the pruning — even with counter_max == 1.
                if (counter_max != 0 && cell.count > counter_max) {
                    // Text-compression style rescaling: halve
                    // everything, weighting recent behaviour more
                    // heavily.
                    for (auto &c : cells)
                        c.count /= 2;
                    cells.eraseIf(
                            [](const Cell &c) { return c.count == 0; });
                }
                return;
            }
        }
        if (max_followers != 0 && cells.size() >= max_followers) {
            // Follower list is at its capacity budget: replace the
            // weakest cell (lowest count, ties to the least recent).
            auto victim = cells.begin();
            for (auto it = cells.begin() + 1; it != cells.end(); ++it) {
                if (it->count < victim->count ||
                    (it->count == victim->count && it->seq < victim->seq)) {
                    victim = it;
                }
            }
            *victim = Cell{value, 1, seq};
            return;
        }
        cells.push_back(Cell{value, 1, seq});
    }

    /** Best follower: max count, ties to the most recent. */
    const Cell *
    best() const
    {
        const Cell *best = nullptr;
        for (const auto &cell : cells) {
            if (best == nullptr || cell.count > best->count ||
                (cell.count == best->count && cell.seq > best->seq)) {
                best = &cell;
            }
        }
        return best;
    }

    static constexpr bool zeroInitialised = true;   ///< hugepage.hh
};

// The bounded VPT entry stays one cache line.
static_assert(sizeof(FcmFollowers) == 64);

/**
 * The unbounded predictor's follower store for one context:
 * FcmFollowers' counting, halving and tie-break rules at O(1) cost
 * per event.
 *
 * Low-order contexts collect every distinct value their PC ever
 * produced (thousands at order 0), so the scans FcmFollowers::bump()
 * and best() make on every event would dominate replay. Instead:
 *
 * - The argmax cell is cached. The cell just bumped is always the
 *   most recent, so it becomes the best iff its count is >= the best
 *   cell's count; no other cell's standing changes.
 * - A list past kScanMax cells is indexed: its heap block carries an
 *   open-addressing value -> cell table of 2 x capacity 32-bit slots
 *   behind the cells, rebuilt when the block doubles. Shorter lists
 *   are scanned.
 * - A halving (counter ceiling != 0) keeps zero-count cells in place
 *   instead of pruning them. Such a cell never wins (the bumped cell
 *   stays >= 1), and a later bump revives it at count 1, as a fresh
 *   cell would start. So no cell ever moves, a halving never touches
 *   the index, and only the argmax is rescanned (at most once per
 *   ceiling / 2 bumps of a context).
 *
 * Every best() therefore equals FcmFollowers::best() on the same
 * stream; tests/fcm_test.cc checks this differentially.
 */
class IndexedFollowers
{
  public:
    using Cell = FcmFollowers::Cell;

    /** Lists up to this long are scanned; longer ones indexed. */
    static constexpr uint32_t kScanMax = 8;

    IndexedFollowers() = default;
    IndexedFollowers(const IndexedFollowers &) = delete;
    IndexedFollowers &operator=(const IndexedFollowers &) = delete;
    ~IndexedFollowers() { ::operator delete(heap_); }

    bool empty() const { return size_ == 0; }

    /** FcmFollowers::bump() without a follower budget. */
    void bump(uint64_t value, uint64_t seq, uint32_t counter_max);

    /** Best follower: max count, ties to the most recent; nullptr
     *  while empty. */
    const Cell *
    best() const
    {
        return size_ == 0 ? nullptr : cells() + best_;
    }

  private:
    /** Cells the storage holds: 1 inline, else bit_ceil(size_). */
    uint32_t capacity() const;

    Cell *cells() { return heap_ != nullptr ? heap_ : &inline_; }
    const Cell *
    cells() const
    {
        return heap_ != nullptr ? heap_ : &inline_;
    }

    /** The 2 x @p cap index slots behind an indexed heap block of
     *  capacity @p cap: a cell number + 1, or 0 when empty. */
    uint32_t *
    slots(uint32_t cap) const
    {
        return reinterpret_cast<uint32_t *>(heap_ + cap);
    }

    /** Number of the cell holding @p value, or UINT32_MAX. */
    uint32_t find(uint64_t value) const;

    /** Append @p cell, doubling the storage when it is full. */
    void push(const Cell &cell);

    /** Enter cell @p at into the index of a block of capacity
     *  @p cap. */
    void index(uint32_t at, uint32_t cap);

    /** One cell inline: a context table node then fits a 96-byte
     *  heap chunk (see FcmPredictor::KeyHash), where FcmFollowers'
     *  two inline cells took 112 bytes. Lists of two or more cells
     *  pay a heap block instead; on balance `vpexp figure3 --jobs 1`
     *  peaks at 121 MB instead of 141 MB (4 vCPU Xeon). */
    Cell inline_;
    Cell *heap_ = nullptr;      ///< raw block: cells, then the index
    uint32_t size_ = 0;
    uint32_t best_ = 0;         ///< index of the argmax cell
};

static_assert(sizeof(IndexedFollowers) == 40);

/**
 * Order-k finite context method predictor.
 *
 * Per static PC the predictor keeps the k most recent values (the
 * context) and, for every order j <= k, an exact table mapping each
 * observed length-j value pattern to the frequency of each value that
 * followed it. Contexts are matched by full concatenation of history
 * values, so there is no aliasing between contexts (Section 3).
 *
 * The predicted value is the one with the maximum count under the
 * longest matching context; ties go to the most recently observed
 * value. Cold entries decline to predict (counted as incorrect by the
 * evaluation harness, consistent with the paper's accounting).
 */
class FcmPredictor : public ValuePredictor
{
  public:
    explicit FcmPredictor(FcmConfig config = {});

    Prediction predict(uint64_t pc) const override;
    void update(uint64_t pc, uint64_t actual) override;
    std::string name() const override;
    void reset() override;
    size_t tableEntries() const override;

    /**
     * Batch loop. The separate predict()/update() pair scans the
     * context tables twice per event (longest match for the
     * prediction, longest match again for the lazy-exclusion training
     * floor); here one scan serves both, which is legitimate because
     * nothing mutates the PC's state between the two scalar calls.
     */
    void evalBatch(const uint64_t *pcs, const uint64_t *values,
                   size_t n, uint64_t *valid,
                   uint64_t *correct) override;

  private:
    /**
     * Hash for a concatenated value context. Transparent so lookups
     * can use a std::span view of the history without allocating.
     * noexcept, so the map's nodes store no hash code (libstdc++
     * caches it only for hashes that may throw): one context costs
     * 16 bytes less.
     */
    struct KeyHash
    {
        using is_transparent = void;

        size_t
        operator()(std::span<const uint64_t> key) const noexcept
        {
            // Mixed FNV-ish hash over whole values.
            uint64_t hash = 1469598103934665603ull;
            for (uint64_t v : key) {
                hash ^= v;
                hash *= 1099511628211ull;
                hash ^= hash >> 29;
            }
            return static_cast<size_t>(hash);
        }

        size_t
        operator()(const std::vector<uint64_t> &key) const noexcept
        {
            return (*this)(std::span<const uint64_t>(key));
        }
    };

    /** Transparent equality over exact value concatenations. */
    struct KeyEqual
    {
        using is_transparent = void;

        bool
        operator()(std::span<const uint64_t> a,
                   std::span<const uint64_t> b) const
        {
            return a.size() == b.size() &&
                   std::equal(a.begin(), a.end(), b.begin());
        }

        bool
        operator()(const std::vector<uint64_t> &a,
                   std::span<const uint64_t> b) const
        {
            return (*this)(std::span<const uint64_t>(a), b);
        }

        bool
        operator()(std::span<const uint64_t> a,
                   const std::vector<uint64_t> &b) const
        {
            return (*this)(a, std::span<const uint64_t>(b));
        }

        bool
        operator()(const std::vector<uint64_t> &a,
                   const std::vector<uint64_t> &b) const
        {
            return (*this)(std::span<const uint64_t>(a),
                           std::span<const uint64_t>(b));
        }
    };

    using ContextTable = std::unordered_map<std::vector<uint64_t>,
                                            IndexedFollowers, KeyHash,
                                            KeyEqual>;

    /** All prediction state for one static instruction. */
    struct PcState
    {
        /** Most recent values, oldest first, up to `order` of them. */
        std::vector<uint64_t> history;

        /** tables[j]: contexts of length j (j = 0 is a single entry). */
        std::vector<ContextTable> tables;
    };

    /** View of the length-j context (newest history values). */
    static std::span<const uint64_t> contextKey(const PcState &state,
                                                int j);

    /**
     * Longest order with a context match, or -1 if none (not even the
     * order-0 table has been trained). When a match is found and
     * @p followers is non-null it receives the matched follower set,
     * saving the caller a second table probe.
     */
    int longestMatch(const PcState &state,
                     const IndexedFollowers **followers = nullptr) const;

    /** Bump @p value under every order lowest..max of @p state. */
    void train(PcState &state, int lowest, uint64_t value);

    FcmConfig config_;
    std::unordered_map<uint64_t, PcState> table_;
    uint64_t seq_ = 0;
};

} // namespace vp::core

#endif // VP_CORE_FCM_HH
