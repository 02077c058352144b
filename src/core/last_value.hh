/**
 * @file
 * Last-value predictors (Section 2.1 of the paper).
 */

#ifndef VP_CORE_LAST_VALUE_HH
#define VP_CORE_LAST_VALUE_HH

#include <cstdint>
#include <unordered_map>

#include "core/predictor.hh"

namespace vp::core {

/**
 * Replacement/hysteresis policy for the last-value table.
 *
 * The paper's main experiments use AlwaysUpdate ("last value prediction
 * (l) with an always-update policy (no hysteresis)"); the other two are
 * the hysteresis variants Section 2.1 describes and are evaluated in
 * the hysteresis ablation bench.
 */
enum class LvPolicy {
    /** Stored value is unconditionally replaced by the actual value. */
    AlwaysUpdate,

    /**
     * A saturating counter is incremented on success and decremented
     * on failure; the stored value is replaced only when the counter
     * is below a threshold. Changes prediction after (possibly
     * inconsistent) incorrect behaviour.
     */
    SaturatingCounter,

    /**
     * The prediction changes to a new value only after that value has
     * been observed a given number of times in succession.
     */
    Consecutive
};

/** Tuning knobs for the hysteresis variants. */
struct LvConfig
{
    LvPolicy policy = LvPolicy::AlwaysUpdate;

    /** SaturatingCounter: replace when counter < threshold. */
    int counterMax = 3;
    int counterThreshold = 1;

    /** Consecutive: replace after this many consecutive sightings. */
    int consecutiveRequired = 2;

    friend bool operator==(const LvConfig &, const LvConfig &) = default;
};

/**
 * One last-value table entry.
 *
 * Shared between the unbounded predictor below and the bounded
 * (set-associative) variant so that, absent capacity evictions, the
 * two are identical by construction.
 */
struct LvEntry
{
    static constexpr bool zeroInitialised = true;   ///< core/hugepage.hh

    uint64_t value = 0;
    int counter = 0;            ///< SaturatingCounter state
    uint64_t candidate = 0;     ///< Consecutive state
    int candidateRun = 0;
};

/** Initialize a freshly allocated entry from the first observed value. */
void lvInitEntry(LvEntry &entry, uint64_t actual, const LvConfig &config);

/** Train an existing entry with the value actually produced. */
void lvTrainEntry(LvEntry &entry, uint64_t actual, const LvConfig &config);

/** Spec name ("l", "l-sat", "l-consec") for a policy. */
const char *lvPolicyName(LvPolicy policy);

/**
 * Last-value predictor: the trivial identity computation on the
 * previous value. Useful only for constant sequences (Table 1).
 */
class LastValuePredictor : public ValuePredictor
{
  public:
    explicit LastValuePredictor(LvConfig config = {});

    Prediction predict(uint64_t pc) const override;
    void update(uint64_t pc, uint64_t actual) override;
    std::string name() const override;
    void reset() override;
    size_t tableEntries() const override { return table_.size(); }

    /**
     * Batch loop: one hash probe per event (the separate
     * predict()/update() pair pays two), same predictions and table
     * state.
     */
    void evalBatch(const uint64_t *pcs, const uint64_t *values,
                   size_t n, uint64_t *valid,
                   uint64_t *correct) override;

  private:
    LvConfig config_;
    std::unordered_map<uint64_t, LvEntry> table_;
};

} // namespace vp::core

#endif // VP_CORE_LAST_VALUE_HH
