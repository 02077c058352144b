/**
 * @file
 * Hybrid predictor with a PC-indexed chooser.
 *
 * Section 4.2 of the paper concludes that "a hybrid fcm-stride
 * predictor with choosing seems to be a good approach"; this is that
 * predictor, built as an extension study (the paper itself stops at
 * the suggestion). The class composes *any* two ValuePredictor
 * components — the paper's s2 + fcm3 by default, bounded variants for
 * the §4.3 shared-budget studies — and the chooser itself can run on
 * a finite BoundedTable so a composed hybrid's chooser, stride, and
 * fcm tables can share one global hardware budget.
 */

#ifndef VP_CORE_HYBRID_HH
#define VP_CORE_HYBRID_HH

#include <array>
#include <optional>
#include <unordered_map>

#include "core/bounded_table.hh"
#include "core/fcm.hh"
#include "core/predictor.hh"
#include "core/stride.hh"

namespace vp::core {

/** Legacy hybrid configuration: the paper's s2 + fcm components. */
struct HybridConfig
{
    StrideConfig stride;
    FcmConfig fcm;

    /**
     * Chooser: a per-PC signed counter; >= 0 selects the FCM
     * component, < 0 the stride component. Incremented when only FCM
     * is correct, decremented when only stride is correct.
     */
    int chooserMax = 7;

    /** Initial chooser bias (0 = start on FCM). */
    int chooserInit = 0;
};

/** Chooser shape for component-composed hybrids. */
struct HybridChooser
{
    /** Counter saturation (the range is [-max - 1, max]). */
    int max = 7;

    /** Initial bias (0 = start on the second component). */
    int init = 0;

    /**
     * Chooser table geometry; nullopt keeps the unbounded per-PC map
     * (the idealised chooser the legacy `hybrid` spec uses). A
     * bounded chooser evicts under pressure — an evicted PC restarts
     * from @c init — which is exactly the finite-resource cost the
     * hybrid_split experiment charges against the shared budget.
     */
    std::optional<BoundedTableConfig> table;
};

/**
 * McFarling-style chooser hybrid of two component predictors.
 *
 * Both components are always trained; the chooser learns, per static
 * instruction, which component to believe (counter >= 0 selects the
 * *second* component, historically the fcm side). This implements the
 * "choose among the two component predictors via the PC address"
 * approach sketched in Section 4.2.
 */
class HybridPredictor : public ValuePredictor
{
  public:
    /** The paper's hybrid: s2 + fcm3 with an unbounded chooser. */
    explicit HybridPredictor(HybridConfig config = {});

    /**
     * Composed hybrid over arbitrary components. @p first is chosen
     * when the counter is negative, @p second otherwise. Components
     * may be shared — with bank members of their own, with other
     * hybrids, or with each other (hybrid(s2,s2) from
     * exp::SpecInterner): the chooser only reads which component was
     * right, never changes what it learns, so one copy trained once
     * per event serves every holder. A hybrid whose components are
     * shared is evaluated through sim::PredictorBank's node DAG, not
     * through its own predict()/update() (or the default evalBatch()
     * over them), which train each component they hold.
     * @throws std::invalid_argument when a component is null.
     */
    HybridPredictor(SharedPredictor first, SharedPredictor second,
                    HybridChooser chooser = {});

    Prediction predict(uint64_t pc) const override;
    void update(uint64_t pc, uint64_t actual) override;
    std::string name() const override;
    void reset() override;

    /** First and second component (rows 0 and 1 of combineBatch()). */
    std::span<const SharedPredictor> components() const override;

    /**
     * The chooser over the components' rows: a sequential pass that
     * replays the scalar counter protocol and derives the hybrid's
     * bits. One chooser touch per event instead of a peek plus a
     * touch.
     */
    void combineBatch(const uint64_t *pcs, size_t n,
                      const OutcomeRows *rows, uint64_t *valid,
                      uint64_t *correct) override;

    /** Chooser entries + both components (honest §4.3 accounting). */
    size_t tableEntries() const override;

    /** Live chooser counters (bounded: table occupancy). */
    size_t chooserEntries() const;

    /** Fraction of dynamic choices that selected the second (fcm)
     *  component. */
    double fcmChoiceFraction() const;

    /** Times a PC's chooser counter crossed the preference boundary
     *  (component selection flipped on the next prediction). */
    uint64_t chooserFlips() const { return chooserFlips_; }

    /** Chooser counters under "hybrid.chooser." plus both components'
     *  own dumps (their family prefixes). */
    void collectCounters(CounterSink &sink) const override;

  private:
    friend struct ZeroStorageAccess;

    /** One bounded-chooser counter (init applied on insert). */
    struct ChooserEntry
    {
        static constexpr bool zeroInitialised = true;   ///< hugepage.hh

        int counter = 0;
    };

    /** Current counter for @p pc without touching recency. */
    int counterFor(uint64_t pc) const;

    /** {first, second}: first chosen when the counter is < 0, second
     *  when it is >= 0. */
    std::array<SharedPredictor, 2> parts_;
    HybridChooser chooser_;
    std::unordered_map<uint64_t, int> mapChooser_;      // unbounded
    std::optional<BoundedTable<ChooserEntry, KeyKind::PcIndexed>>
            boundedChooser_;
    uint64_t choseSecond_ = 0;
    uint64_t choices_ = 0;
    uint64_t chooserFlips_ = 0;
};

} // namespace vp::core

#endif // VP_CORE_HYBRID_HH
