/**
 * @file
 * Abstract value-predictor interface.
 *
 * All predictors in the study follow the paper's restricted model
 * (Section 2): the only input used to access prediction tables is the
 * program counter of the instruction being predicted, and tables are
 * updated with the value the instruction actually produced, immediately
 * after the prediction is made.
 */

#ifndef VP_CORE_PREDICTOR_HH
#define VP_CORE_PREDICTOR_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <span>
#include <string>

namespace vp::core {

/**
 * Word-packed bit rows used by the batched evaluation path: bit i of
 * a row lives in word i/64. Plain uint64_t words instead of
 * std::vector<bool> keeps the hot loop free of proxy references and
 * lets the evaluation harness combine per-predictor outcome rows with
 * whole-word reads.
 */
namespace bits {

/** Words needed for @p n bits. */
constexpr size_t
words(size_t n)
{
    return (n + 63) / 64;
}

inline void
set(uint64_t *row, size_t i)
{
    row[i >> 6] |= uint64_t{1} << (i & 63);
}

inline bool
test(const uint64_t *row, size_t i)
{
    return (row[i >> 6] >> (i & 63)) & 1;
}

} // namespace bits

/** Outcome of a table lookup. */
struct Prediction
{
    bool valid = false;     ///< false: predictor declines (cold entry)
    uint64_t value = 0;     ///< predicted value when valid

    static Prediction none() { return {}; }

    static Prediction
    of(uint64_t value)
    {
        return {true, value};
    }
};

class ValuePredictor;

/**
 * A predictor other predictors may hold: a confidence gate's inner, a
 * hybrid's components, a node of a bank's shared evaluation DAG
 * (sim::PredictorBank). A unique PredictorPtr converts to it.
 */
using SharedPredictor = std::shared_ptr<ValuePredictor>;

/** One predictor's outcome rows for a batch, as combineBatch() reads
 *  its components' (bits::words(n) words each). */
struct OutcomeRows
{
    const uint64_t *valid = nullptr;
    const uint64_t *correct = nullptr;
};

/**
 * Interface implemented by every predictor model.
 *
 * The simulation protocol per dynamic instruction is:
 * @code
 *   Prediction p = pred.predict(pc);
 *   bool correct = p.valid && p.value == actual;
 *   pred.update(pc, actual);       // immediate update (Section 3)
 * @endcode
 *
 * Implementations use unbounded, alias-free tables: each static PC has
 * its own entry. predict() must not mutate observable state; all
 * learning happens in update().
 */
class ValuePredictor
{
  public:
    virtual ~ValuePredictor() = default;

    /** Look up a prediction for the instruction at @p pc. */
    virtual Prediction predict(uint64_t pc) const = 0;

    /** Train the table with the value actually produced at @p pc. */
    virtual void update(uint64_t pc, uint64_t actual) = 0;

    /** Human-readable name ("l", "s2", "fcm3", ...). */
    virtual std::string name() const = 0;

    /** Discard all learned state. */
    virtual void reset() = 0;

    /**
     * Approximate number of table entries currently allocated, for
     * the cost discussions in Section 4.3 of the paper.
     */
    virtual size_t tableEntries() const = 0;

    /**
     * Evaluate one batch of events: for each i in [0, n) run the
     * per-event protocol (predict @p pcs[i], grade against
     * @p values[i], update) and set bit i of @p valid / @p correct
     * when the prediction was made / correct. Both rows are
     * caller-zeroed (bits::words(n) words each).
     *
     * The default loops the virtual predict/update pair, so every
     * predictor is batch-correct by construction; the leaf families
     * override it with devirtualised loops that also skip redundant
     * table probes the separate predict()/update() calls must repeat.
     * Overrides must preserve the scalar path's observable semantics
     * exactly — same predictions, same table state, same replacement
     * decisions — which batched_equivalence_test pins; only probe
     * *counts* (BoundedTable::aliasedPeeks, a simulator-side
     * diagnostic) may drop when a duplicate lookup is elided.
     */
    virtual void evalBatch(const uint64_t *pcs, const uint64_t *values,
                           size_t n, uint64_t *valid, uint64_t *correct);

    /**
     * The predictors this one combines, in combineBatch() row order:
     * a confidence gate's inner, a hybrid's first and second
     * component. Empty (the default) for a leaf family, whose
     * evalBatch() does its own table work.
     */
    virtual std::span<const SharedPredictor> components() const;

    /**
     * A composite's batched logic: given every component's
     * valid/correct rows for this batch (@p rows, one entry per
     * components() element, already evaluated), run this predictor's
     * own per-event logic — gate counters, chooser — and set its
     * @p valid / @p correct bits (caller-zeroed). Components never
     * see what combines them, so their rows are the same whether
     * they were evaluated for this predictor alone or once for many.
     * That is what lets sim::PredictorBank, its only caller, evaluate
     * a component shared by many composites once per batch. Leaves
     * have no components; the default throws std::logic_error.
     */
    virtual void combineBatch(const uint64_t *pcs, size_t n,
                              const OutcomeRows *rows, uint64_t *valid,
                              uint64_t *correct);

    /**
     * Dump internal counters (evictions, occupancy, probe depths,
     * chooser flips, ...) into @p sink under dotted, family-prefixed
     * names ("fcm.vpt.evictions"). Purely observational: must not
     * change predictor state. The default emits nothing — unbounded
     * reference predictors have no finite resources worth counting.
     */
    virtual void collectCounters(class CounterSink &sink) const;
};

using PredictorPtr = std::unique_ptr<ValuePredictor>;

/**
 * Receiver for a predictor's internal counters (collectCounters()).
 *
 * A pure interface so core stays free of any metrics dependency: the
 * harness implements it over the obs registry (exp/suite.cc), tests
 * implement it over a plain map. Collection happens once per cell at
 * replay end — never on the per-event path — so implementations can
 * be as slow as they like.
 */
class CounterSink
{
  public:
    virtual ~CounterSink() = default;

    /** Monotonic count ("fcm.vpt.evictions" -> 1234). Same-name calls
     *  accumulate. */
    virtual void counter(const std::string &name, uint64_t value) = 0;

    /** Level sample ("fcm.vpt.occupancy"); same-name calls keep the
     *  maximum (high-water semantics). */
    virtual void gauge(const std::string &name, uint64_t value) = 0;

    /** Import @p count samples of @p value into the named
     *  distribution (e.g. a probe-depth histogram bucket). */
    virtual void distribution(const std::string &name, uint64_t value,
                              uint64_t count) = 0;
};

} // namespace vp::core

#endif // VP_CORE_PREDICTOR_HH
