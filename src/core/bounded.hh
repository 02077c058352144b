/**
 * @file
 * Finite-budget variants of the three predictor families.
 *
 * The paper's predictors are idealised: every static instruction gets
 * its own alias-free entry (Section 3), which answers "how predictable
 * are values" but not "what accuracy does a 64KB table buy". These
 * classes answer the second question: the same prediction algorithms
 * (shared entry/follower logic, so the bounded and unbounded variants
 * are identical whenever nothing is evicted) running on fixed-capacity
 * set-associative tables (core/bounded_table.hh).
 *
 * The FCM variant follows the classic two-level organisation the
 * paper's Section 4.3 cost discussion sketches: a VHT (value history
 * table, PC -> the last k values) feeding a VPT (value prediction
 * table, hashed context -> follower frequencies). Context keys hash
 * the PC, the order and the history values into 64 bits, so distinct
 * contexts alias only through table-capacity pressure.
 */

#ifndef VP_CORE_BOUNDED_HH
#define VP_CORE_BOUNDED_HH

#include <array>
#include <cstdint>

#include "core/bounded_table.hh"
#include "core/fcm.hh"
#include "core/last_value.hh"
#include "core/predictor.hh"
#include "core/stride.hh"

namespace vp::core {

/** Render "@<entries>x<ways>[r|f][%<tag>]". */
std::string boundedSuffix(const BoundedTableConfig &config);

/** The entry-count-less tail of boundedSuffix ("x4r%8") — shared
 *  with the fcm "@<vht>/<vpt>x..." rendering. */
std::string boundedSuffixTail(const BoundedTableConfig &config);

/**
 * Emit one table's telemetry() dump into @p sink under @p prefix
 * (e.g. "fcm.vpt." -> "fcm.vpt.evictions", "fcm.vpt.occupancy",
 * "fcm.vpt.probe_depth", ...). Shared by every bounded family's
 * collectCounters() so metric names stay uniform across predictors.
 */
void emitTableCounters(const BoundedTableTelemetry &telemetry,
                       const std::string &prefix, CounterSink &sink);

/** Bounded last-value predictor: LvEntry logic on a BoundedTable. */
class BoundedLastValuePredictor : public ValuePredictor
{
  public:
    explicit BoundedLastValuePredictor(LvConfig config = {},
                                       BoundedTableConfig table = {});

    Prediction predict(uint64_t pc) const override;
    void update(uint64_t pc, uint64_t actual) override;
    std::string name() const override;
    void reset() override;
    size_t tableEntries() const override { return table_.size(); }

    /**
     * Batch loop: one table touch per event instead of a peek plus a
     * touch. Identical observable state — peek() never moves recency,
     * and the prediction is read from the entry before it is trained —
     * though the elided peeks mean the aliasedPeeks() diagnostic no
     * longer accumulates.
     */
    void evalBatch(const uint64_t *pcs, const uint64_t *values,
                   size_t n, uint64_t *valid,
                   uint64_t *correct) override;

    uint64_t evictions() const { return table_.evictions(); }

    /** Table counters under "lv." (see emitTableCounters). */
    void collectCounters(CounterSink &sink) const override;

    /** The underlying table (eviction and aliasing counters). */
    const BoundedTable<LvEntry, KeyKind::PcIndexed> &table() const
    {
        return table_;
    }

  private:
    LvConfig config_;
    BoundedTable<LvEntry, KeyKind::PcIndexed> table_;
};

/** Bounded stride predictor: StrideEntry logic on a BoundedTable. */
class BoundedStridePredictor : public ValuePredictor
{
  public:
    explicit BoundedStridePredictor(StrideConfig config = {},
                                    BoundedTableConfig table = {});

    Prediction predict(uint64_t pc) const override;
    void update(uint64_t pc, uint64_t actual) override;
    std::string name() const override;
    void reset() override;
    size_t tableEntries() const override { return table_.size(); }

    /** Batch loop: one table touch per event (see
     *  BoundedLastValuePredictor::evalBatch). */
    void evalBatch(const uint64_t *pcs, const uint64_t *values,
                   size_t n, uint64_t *valid,
                   uint64_t *correct) override;

    uint64_t evictions() const { return table_.evictions(); }

    /** Table counters under "stride." (see emitTableCounters). */
    void collectCounters(CounterSink &sink) const override;

    /** The underlying table (eviction and aliasing counters). */
    const BoundedTable<StrideEntry, KeyKind::PcIndexed> &table() const
    {
        return table_;
    }

  private:
    StrideConfig config_;
    BoundedTable<StrideEntry, KeyKind::PcIndexed> table_;
};

/** Bounded two-level FCM configuration. */
struct BoundedFcmConfig
{
    /** Prediction algorithm (order, blending, counter ceiling). */
    FcmConfig fcm;

    /** VHT geometry: PC -> the last `order` values. */
    BoundedTableConfig vht = {.entries = 1024, .ways = 4,
                              .replacement = Replacement::Lru,
                              .seed = 0x9e3779b97f4a7c15ull};

    /** VPT geometry: hashed (PC, order, context) -> followers. */
    BoundedTableConfig vpt = {.entries = 4096, .ways = 4,
                              .replacement = Replacement::Lru,
                              .seed = 0x9e3779b97f4a7c15ull};

    /**
     * Distinct follower values kept per VPT entry (0 = unbounded,
     * the configuration that is exactly equivalent to the idealised
     * predictor when the tables are large enough; the capacity sweep
     * uses a small value as a real implementation would).
     */
    uint32_t maxFollowers = 0;
};

/**
 * Bounded order-k FCM: split VHT/VPT, both finite.
 *
 * Prediction and training mirror FcmPredictor (longest matching
 * context of orders k..0, lazy-exclusion/full/no blending, shared
 * FcmFollowers counting), so with tables that never evict the
 * per-event behaviour is identical to the unbounded
 * predictor — the property bounded_equivalence_test pins. Under
 * pressure, VHT evictions lose a PC's history and VPT evictions lose
 * learned contexts, which is precisely the finite-resource cost the
 * capacity sweep measures.
 */
class BoundedFcmPredictor : public ValuePredictor
{
  public:
    /** Histories are inline arrays; orders above this are rejected. */
    static constexpr int maxOrder = 8;

    explicit BoundedFcmPredictor(BoundedFcmConfig config = {});

    Prediction predict(uint64_t pc) const override;
    void update(uint64_t pc, uint64_t actual) override;
    std::string name() const override;
    void reset() override;
    size_t tableEntries() const override
    {
        return vht_.size() + vpt_.size();
    }

    /**
     * Batch loop: one VHT touch and one VPT context scan per event
     * (the scalar pair pays a VHT peek + touch and two scans), and
     * training reuses the scan's probes: in the steady-state case the
     * matched VPT slot is re-touched in place, and an order the scan
     * missed is inserted into the set its peek found, without a
     * second probe. Identical observable state; only the probe
     * telemetry (probes, probe depths, aliasedPeeks()) diverges
     * because duplicate probes are elided.
     */
    void evalBatch(const uint64_t *pcs, const uint64_t *values,
                   size_t n, uint64_t *valid,
                   uint64_t *correct) override;

    uint64_t vhtEvictions() const { return vht_.evictions(); }
    uint64_t vptEvictions() const { return vpt_.evictions(); }

    /** VPT aliasing counters (partial tags; see BoundedTable). */
    uint64_t vptAliasedTouches() const { return vpt_.aliasedTouches(); }
    uint64_t vptAliasConstructive() const
    {
        return vpt_.aliasConstructive();
    }
    uint64_t vptAliasDestructive() const
    {
        return vpt_.aliasDestructive();
    }

    /** Both tables' counters, under "fcm.vht." and "fcm.vpt.". */
    void collectCounters(CounterSink &sink) const override;

  private:
    friend struct ZeroStorageAccess;

    /** Most recent values, oldest first. */
    struct VhtEntry
    {
        static constexpr bool zeroInitialised = true;   ///< hugepage.hh

        std::array<uint64_t, maxOrder> history{};
        uint8_t len = 0;
    };

    /** 64-bit key for the order-j context of @p pc. */
    static uint64_t contextKey(uint64_t pc, int j, const VhtEntry &entry);

    /** Longest order whose context is present in the VPT; -1 none. */
    int longestMatch(uint64_t pc, const VhtEntry &entry) const;

    BoundedFcmConfig config_;
    BoundedTable<VhtEntry, KeyKind::PcIndexed> vht_;
    BoundedTable<FcmFollowers, KeyKind::Hashed> vpt_;
    uint64_t seq_ = 0;
};

} // namespace vp::core

#endif // VP_CORE_BOUNDED_HH
