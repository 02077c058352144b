/**
 * @file
 * Confidence sweep: coverage vs accuracy-when-predicted as the gate
 * tightens, across every predictor family and all seven workloads.
 *
 * Section 4 of the paper notes that acting on value predictions costs
 * recovery on a miss, so a real machine trades coverage against
 * accuracy; this experiment quantifies that trade-off with the
 * ConfidencePredictor decorator (core/confidence.hh) over a counter
 * width x threshold grid, and scores each point with the
 * speculation-profit proxy at several misprediction costs.
 *
 * The registered `confidence` experiment reports the sweep; the
 * monotone trade-off and the profit bar are asserted in
 * tests/confidence_test.cc.
 */

#ifndef VP_EXP_CONFIDENCE_HH
#define VP_EXP_CONFIDENCE_HH

#include <string>
#include <vector>

#include "exp/suite.hh"

namespace vp::exp {

/** Families swept: "l", "s2", "fcm1", "fcm2", "fcm3", "hybrid". */
const std::vector<std::string> &confidenceFamilies();

/** One estimator shape on the sweep grid. */
struct ConfidencePoint
{
    int width = 2;          ///< counter width in bits
    int threshold = 2;      ///< predict at counter >= threshold
};

/**
 * The width x threshold grid, width-major, thresholds ascending
 * within each width (1..2^w - 1; threshold 0 is the ungated column).
 */
const std::vector<ConfidencePoint> &confidenceSweepPoints();

/** Misprediction costs the profit tables report (units of one hit). */
const std::vector<double> &speculationCosts();

/** Gated spec string: base + ":c<w>t<t>" (reset penalty). */
std::string confidenceSpecFor(const std::string &base,
                              const ConfidencePoint &point);

/** The sweep's bank: per family, ungated + every grid point. */
std::vector<std::string> confidenceSweepSpecs();

/**
 * Index of @p family_index at grid point confidenceSweepPoints()[@p
 * point_index] in a confidenceSweepSpecs() bank: specs are laid out
 * family-major, ungated first, then the grid points in
 * confidenceSweepPoints() order.
 */
size_t confidenceSpecIndex(size_t family_index, size_t point_index);

/** Index of @p family_index's ungated spec in the same bank. */
size_t confidenceUngatedIndex(size_t family_index);

/** The suite options of every sweep cell (one per workload): every
 *  spec from confidenceSweepSpecs() banked, trackers off. */
SuiteOptions confidenceSweepOptions();

/** Mean coverage / accuracy-when-predicted / profit over the runs
 *  for predictor @p index (the paper's equal-weight averaging). */
double meanCoveragePct(const std::vector<BenchmarkRun> &runs,
                       size_t index);
double meanAccuracyWhenPredictedPct(const std::vector<BenchmarkRun> &runs,
                                    size_t index);
double meanProfit(const std::vector<BenchmarkRun> &runs, size_t index,
                  double cost);

} // namespace vp::exp

#endif // VP_EXP_CONFIDENCE_HH
