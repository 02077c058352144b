/**
 * @file
 * Capacity sweep: bounded predictors from tiny tables up to (nearly)
 * the paper's unbounded idealisation.
 *
 * Section 5 of the paper leaves "realistic implementations" with
 * finite resources as future work; this experiment quantifies the gap.
 * Every family (last value, stride, fcm) runs at several total entry
 * budgets side by side with its unbounded counterpart, in a single
 * trace pass per workload, and the report shows accuracy converging
 * toward the idealised numbers as capacity grows.
 *
 * The registered `capacity` experiment reports the sweep; the
 * convergence bar is asserted in tests/bounded_equivalence_test.cc.
 */

#ifndef VP_EXP_CAPACITY_HH
#define VP_EXP_CAPACITY_HH

#include <string>
#include <vector>

#include "core/bounded_table.hh"
#include "exp/suite.hh"

namespace vp::exp {

/** Predictor families swept: "l", "s2", "fcm3". */
const std::vector<std::string> &capacityFamilies();

/** Total-entry budgets swept, smallest first. */
const std::vector<size_t> &capacitySweepPoints();

/**
 * Bounded spec string giving @p base a total budget of @p entries
 * (16-way LRU: high enough associativity that capacity, not set
 * conflicts, is the limiting factor the sweep measures — at 4 ways
 * conflict evictions alone cost compress ~0.3pp even at 1M entries).
 * Last value and stride spend the whole budget on their one table;
 * fcm splits it 1:3 between the VHT and the VPT (contexts far
 * outnumber static instructions).
 */
std::string boundedSpecFor(const std::string &base, size_t entries);

/**
 * boundedSpecFor with an explicit victim policy — the replacement-
 * policy study sweeps LRU vs FIFO vs deterministic-random over the
 * same capacity grid.
 */
std::string boundedSpecFor(const std::string &base, size_t entries,
                           core::Replacement policy);

/** The sweep's predictor bank: per family, unbounded + every budget. */
std::vector<std::string> capacitySweepSpecs();

/**
 * Index of @p family_index at budget capacitySweepPoints()[@p
 * budget_index] in a capacitySweepSpecs() bank: specs are laid out
 * family-major, unbounded first, then the budgets in
 * capacitySweepPoints() order.
 */
size_t capacitySpecIndex(size_t family_index, size_t budget_index);

/** Index of @p family_index's unbounded spec in the same bank. */
size_t capacityUnboundedIndex(size_t family_index);

/** The suite options of every sweep cell (one per workload): every
 *  spec from capacitySweepSpecs() banked, trackers off. */
SuiteOptions capacitySweepOptions();

} // namespace vp::exp

#endif // VP_EXP_CAPACITY_HH
