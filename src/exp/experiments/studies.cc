/**
 * @file
 * Extension studies beyond the paper's figures: the Section 4.2
 * hybrid, the hysteresis/blending ablations, the capacity and
 * confidence sweeps (converted from their bench binaries), the
 * replacement-policy study — the first experiment born inside the
 * registry rather than as a binary — and the two studies the typed
 * PredictorSpec grammar unlocked: hybrid_split (one global budget
 * shared by a composed hybrid's chooser/stride/fcm tables) and
 * aliasing (partial-tag widths vs full-key tables).
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <vector>

#include "core/bounded.hh"
#include "core/overlap.hh"
#include "exp/capacity.hh"
#include "exp/confidence.hh"
#include "exp/experiments/modules.hh"

namespace vp::exp::experiments {

namespace {

// ---------------------------------------------------------------------
// hybrid — the chooser hybrid vs its components and the oracle union
// (Section 4.2: "use a stride predictor for most predictions, and
// use fcm prediction to get the remaining 20%").
// ---------------------------------------------------------------------

SuiteOptions
hybridOptions()
{
    SuiteOptions options;
    options.predictors = {"s2", "fcm3", "hybrid"};
    options.overlap = 2;            // s2 | fcm3 union = oracle
    return options;
}

void
runHybrid(const GridRuns &cells, Report &report)
{
    const auto &runs = cells.front();

    auto &table = report.table("accuracy");
    table.row().cell("benchmark").cell("s2").cell("fcm3")
         .cell("hybrid").cell("oracle").cell("hybrid-fcm3").rule();

    double mean_h = 0, mean_f = 0, mean_o = 0;
    for (const auto &run : runs) {
        const double s2 = run.accuracyPct(0);
        const double fcm3 = run.accuracyPct(1);
        const double hybrid = run.accuracyPct(2);
        const double oracle =
                100.0 * run.overlap->unionFraction(0b11);
        mean_h += hybrid / runs.size();
        mean_f += fcm3 / runs.size();
        mean_o += oracle / runs.size();
        table.row().cell(run.name);
        table.cell(s2, 1);
        table.cell(fcm3, 1);
        table.cell(hybrid, 1);
        table.cell(oracle, 1);
        table.cell(hybrid - fcm3, 1);
    }

    report.textf("mean: hybrid %.1f%% vs fcm3 %.1f%% vs oracle %.1f%%",
                 mean_h, mean_f, mean_o);
    report.text("shape: the chooser hybrid should recover most of "
                "the oracle gap over fcm3\nby delegating "
                "stride-friendly statics (fresh strides) to s2.");
}

// ---------------------------------------------------------------------
// ablation_blending — fcm blending with lazy exclusion (the paper's
// configuration) vs full blending vs none, and exact counts vs small
// saturating counters (Section 2.2).
// ---------------------------------------------------------------------

SuiteOptions
blendingOptions()
{
    SuiteOptions options;
    options.predictors = {"fcm3", "fcm3-full", "fcm3-pure",
                          "fcm3-sat"};
    return options;
}

void
runAblationBlending(const GridRuns &cells, Report &report)
{
    const auto options = blendingOptions();
    const auto &runs = cells.front();

    report.text("fcm3 = lazy exclusion + exact counts (the paper's "
                "configuration)");
    report.text("");

    auto &table = report.table("accuracy");
    table.row().cell("benchmark").cell("lazy").cell("full")
         .cell("no-blend").cell("small-ctr").rule();
    for (const auto &run : runs) {
        table.row().cell(run.name);
        for (size_t i = 0; i < options.predictors.size(); ++i)
            table.cell(run.accuracyPct(i), 1);
    }
    table.rule();
    table.row().cell("mean");
    for (size_t i = 0; i < options.predictors.size(); ++i)
        table.cell(meanAccuracyPct(runs, i), 1);

    const double lazy = meanAccuracyPct(runs, 0);
    const double pure = meanAccuracyPct(runs, 2);
    report.textf("expectations: blending >> no blending (order-3 "
                 "contexts alone leave cold-start\nholes): lazy=%.1f "
                 "no-blend=%.1f %s; small counters track exact counts "
                 "closely\n(recency weighting rarely hurts).",
                 lazy, pure, lazy > pure ? "(ok)" : "(CHECK)");
}

// ---------------------------------------------------------------------
// ablation_hysteresis — hysteresis policies of the computational
// predictors (Section 2.1).
// ---------------------------------------------------------------------

SuiteOptions
hysteresisOptions()
{
    SuiteOptions options;
    options.predictors = {"l", "l-sat", "l-consec", "s", "s-sat",
                          "s2"};
    return options;
}

void
runAblationHysteresis(const GridRuns &cells, Report &report)
{
    const auto options = hysteresisOptions();
    const auto &runs = cells.front();

    auto &table = report.table("accuracy");
    table.row().cell("benchmark");
    for (const auto &spec : options.predictors)
        table.cell(spec);
    table.rule();
    for (const auto &run : runs) {
        table.row().cell(run.name);
        for (size_t i = 0; i < options.predictors.size(); ++i)
            table.cell(run.accuracyPct(i), 1);
    }
    table.rule();
    table.row().cell("mean");
    for (size_t i = 0; i < options.predictors.size(); ++i)
        table.cell(meanAccuracyPct(runs, i), 1);

    const double s = meanAccuracyPct(runs, 3);
    const double s_sat = meanAccuracyPct(runs, 4);
    const double s2 = meanAccuracyPct(runs, 5);
    report.textf("expectations: two-delta (s2) >= saturating >= naive "
                 "stride on repeated\nstride sequences (one vs two "
                 "misses per period): s=%.1f s-sat=%.1f s2=%.1f %s",
                 s, s_sat, s2,
                 (s2 + 0.5 >= s_sat && s_sat + 0.5 >= s) ? "(ok)"
                                                         : "(CHECK)");
}

// ---------------------------------------------------------------------
// capacity — bounded predictor accuracy per total entry budget,
// converging to the unbounded idealisation (the §5 future work).
// ---------------------------------------------------------------------

void
runCapacity(const GridRuns &cells, Report &report)
{
    const auto &runs = cells.front();
    const auto &families = capacityFamilies();
    const auto &points = capacitySweepPoints();

    report.text("(16-way LRU; fcm splits its budget 1:3 between VHT "
                "and VPT, 4 followers per entry)");
    report.text("");

    for (const auto &run : runs) {
        report.text(run.name);
        auto &table = report.table("accuracy_" + run.name);
        auto &header = table.row().cell("entries");
        for (const auto &family : families)
            header.cell(family);
        table.rule();
        for (size_t p = 0; p < points.size(); ++p) {
            auto &row = table.row().cell(
                    static_cast<uint64_t>(points[p]));
            for (size_t f = 0; f < families.size(); ++f)
                row.cell(run.accuracyPct(capacitySpecIndex(f, p)), 2);
        }
        auto &last = table.row().cell("unbounded");
        for (size_t f = 0; f < families.size(); ++f)
            last.cell(run.accuracyPct(capacityUnboundedIndex(f)), 2);
    }

    report.text("Suite mean (paper averaging rule)");
    auto &mean = report.table("accuracy_mean");
    auto &header = mean.row().cell("entries");
    for (const auto &family : families)
        header.cell(family);
    mean.rule();
    for (size_t p = 0; p < points.size(); ++p) {
        auto &row = mean.row().cell(static_cast<uint64_t>(points[p]));
        for (size_t f = 0; f < families.size(); ++f)
            row.cell(meanAccuracyPct(runs, capacitySpecIndex(f, p)), 2);
    }
    auto &last = mean.row().cell("unbounded");
    for (size_t f = 0; f < families.size(); ++f)
        last.cell(meanAccuracyPct(runs, capacityUnboundedIndex(f)), 2);

    report.text("shape check: largest budget within 0.1pp of "
                "unbounded per workload");
    bool converged = true;
    for (const auto &run : runs) {
        for (size_t f = 0; f < families.size(); ++f) {
            const double bounded = run.accuracyPct(
                    capacitySpecIndex(f, points.size() - 1));
            const double unbounded =
                    run.accuracyPct(capacityUnboundedIndex(f));
            const double gap = unbounded - bounded;
            if (gap > 0.1 || gap < -0.1) {
                report.textf("  WARNING: %s/%s gap %.3fpp at %zu "
                             "entries",
                             run.name.c_str(), families[f].c_str(),
                             gap, points.back());
                converged = false;
            }
        }
    }
    if (converged)
        report.text("  all families converged");
}

// ---------------------------------------------------------------------
// confidence — the gated coverage/accuracy/profit sweep (Section 4
// speculation control), per family over a width x threshold grid.
// ---------------------------------------------------------------------

std::string
pointLabel(const ConfidencePoint &point)
{
    // snprintf instead of "c" + to_string(...): GCC 12's -Wrestrict
    // false-positives on const char* + std::string&& (as in
    // isa/disasm.cc).
    char buf[32];
    std::snprintf(buf, sizeof(buf), "c%dt%d", point.width,
                  point.threshold);
    return buf;
}

void
runConfidence(const GridRuns &cells, Report &report)
{
    const auto &runs = cells.front();
    const auto &families = confidenceFamilies();
    const auto &points = confidenceSweepPoints();

    report.text("(cWtT = width W bits, predict at counter >= T, reset "
                "on miss; cov = %\nof eligible events predicted, acc "
                "= % correct of those)");
    report.text("");

    for (const auto &run : runs) {
        report.text(run.name);
        auto &table = report.table("gates_" + run.name);
        auto &header = table.row().cell("gate");
        for (const auto &family : families) {
            header.cell(family + " cov");
            header.cell("acc");
        }
        table.rule();
        auto &ungated = table.row().cell("none");
        for (size_t f = 0; f < families.size(); ++f) {
            const auto &stats =
                    run.predictors.at(confidenceUngatedIndex(f)).second;
            ungated.cell(100.0 * stats.coverage(), 1);
            ungated.cell(100.0 * stats.accuracyWhenPredicted(), 1);
        }
        for (size_t p = 0; p < points.size(); ++p) {
            auto &row = table.row().cell(pointLabel(points[p]));
            for (size_t f = 0; f < families.size(); ++f) {
                const auto &stats =
                        run.predictors.at(confidenceSpecIndex(f, p)).second;
                row.cell(100.0 * stats.coverage(), 1);
                row.cell(100.0 * stats.accuracyWhenPredicted(), 1);
            }
        }
    }

    report.text("Suite mean (paper averaging rule)");
    auto &mean = report.table("gates_mean");
    auto &header = mean.row().cell("gate");
    for (const auto &family : families) {
        header.cell(family + " cov");
        header.cell("acc");
    }
    mean.rule();
    auto &ungated = mean.row().cell("none");
    for (size_t f = 0; f < families.size(); ++f) {
        const size_t index = confidenceUngatedIndex(f);
        ungated.cell(meanCoveragePct(runs, index), 1);
        ungated.cell(meanAccuracyWhenPredictedPct(runs, index), 1);
    }
    for (size_t p = 0; p < points.size(); ++p) {
        auto &row = mean.row().cell(pointLabel(points[p]));
        for (size_t f = 0; f < families.size(); ++f) {
            const size_t index = confidenceSpecIndex(f, p);
            row.cell(meanCoveragePct(runs, index), 1);
            row.cell(meanAccuracyWhenPredictedPct(runs, index), 1);
        }
    }

    for (const double cost : speculationCosts()) {
        report.textf("Suite-mean profit per eligible event at "
                     "misprediction cost %.0f",
                     cost);
        auto &profit = report.table(
                "profit_cost" +
                std::to_string(static_cast<int>(cost)));
        auto &phead = profit.row().cell("gate");
        for (const auto &family : families)
            phead.cell(family);
        profit.rule();
        auto &pu = profit.row().cell("none");
        for (size_t f = 0; f < families.size(); ++f) {
            pu.cell(meanProfit(runs, confidenceUngatedIndex(f), cost), 3);
        }
        for (size_t p = 0; p < points.size(); ++p) {
            auto &row = profit.row().cell(pointLabel(points[p]));
            for (size_t f = 0; f < families.size(); ++f) {
                row.cell(meanProfit(runs, confidenceSpecIndex(f, p), cost),
                         3);
            }
        }
    }

    report.text("shape check: a gated fcm3 point beats ungated fcm3 "
                "on profit at every cost >= 1");
    size_t fcm3 = 0;
    for (size_t f = 0; f < families.size(); ++f) {
        if (families[f] == "fcm3")
            fcm3 = f;
    }
    bool all_beat = true;
    for (const double cost : speculationCosts()) {
        const double base =
                meanProfit(runs, confidenceUngatedIndex(fcm3), cost);
        double best = base;
        std::string best_label = "none";
        for (size_t p = 0; p < points.size(); ++p) {
            const double gated =
                    meanProfit(runs, confidenceSpecIndex(fcm3, p), cost);
            if (gated > best) {
                best = gated;
                best_label = pointLabel(points[p]);
            }
        }
        report.textf("  cost %.0f: ungated %.3f, best %s %.3f", cost,
                     base, best_label.c_str(), best);
        if (best_label == "none")
            all_beat = false;
    }
    report.text(all_beat
                        ? "  gating pays at every cost"
                        : "  WARNING: gating never beat ungated fcm3");
}

// ---------------------------------------------------------------------
// replacement — LRU vs FIFO vs deterministic-random victims across
// the capacity grid (the ROADMAP replacement-policy study; the first
// experiment registered directly in the framework). Where does the
// victim policy matter, and where does capacity dominate?
// ---------------------------------------------------------------------

const std::vector<core::Replacement> &
replacementPolicies()
{
    static const std::vector<core::Replacement> policies = {
        core::Replacement::Lru,
        core::Replacement::Fifo,
        core::Replacement::Random,
    };
    return policies;
}

const char *
policyName(core::Replacement policy)
{
    switch (policy) {
    case core::Replacement::Lru: return "lru";
    case core::Replacement::Fifo: return "fifo";
    case core::Replacement::Random: return "random";
    }
    return "?";
}

/**
 * The study's own bank: the FIFO and random columns, family-major,
 * then budget, then policy. The unbounded and LRU columns are
 * capacity's members (boundedSpecFor canonicalises LRU to no suffix),
 * so the study reads them from capacity's cells, which the scheduler
 * runs once however many sweeps ask for them.
 */
std::vector<std::string>
replacementSweepSpecs()
{
    std::vector<std::string> specs;
    for (const auto &family : capacityFamilies()) {
        for (const size_t entries : capacitySweepPoints()) {
            for (const auto policy : replacementPolicies()) {
                if (policy != core::Replacement::Lru)
                    specs.push_back(
                            boundedSpecFor(family, entries, policy));
            }
        }
    }
    return specs;
}

SuiteOptions
replacementOptions()
{
    SuiteOptions options;
    options.predictors = replacementSweepSpecs();
    return options;
}

void
runReplacement(const GridRuns &cells, Report &report)
{
    const auto &capacity = cells[0];
    const auto &runs = cells[1];
    const auto &families = capacityFamilies();
    const auto &points = capacitySweepPoints();
    const auto &policies = replacementPolicies();

    // Suite-mean accuracy of family f at budget p under policy pol
    // (an index into replacementPolicies(), LRU first).
    const auto accuracy = [&](size_t f, size_t p, size_t pol) {
        if (pol == 0)
            return meanAccuracyPct(capacity, capacitySpecIndex(f, p));
        const size_t victims = policies.size() - 1;
        return meanAccuracyPct(
                runs, (f * points.size() + p) * victims + pol - 1);
    };

    report.text("(16-way tables on the capacity-sweep grid; cells: "
                "suite-mean accuracy %, paper averaging rule;\n"
                "spread = best policy - worst policy, gap = unbounded "
                "- best policy)");
    report.text("");

    // Where the policy matters most, per family: remembered while
    // printing the per-family tables, summarised after them.
    std::vector<double> max_spread(families.size(), 0.0);
    std::vector<size_t> max_spread_budget(families.size(), 0);

    for (size_t f = 0; f < families.size(); ++f) {
        report.text(families[f]);
        auto &table = report.table("policy_" + families[f]);
        auto &header = table.row().cell("entries");
        for (const auto policy : policies)
            header.cell(policyName(policy));
        header.cell("spread").cell("gap");
        table.rule();

        const double unbounded = meanAccuracyPct(
                capacity, capacityUnboundedIndex(f));
        for (size_t p = 0; p < points.size(); ++p) {
            auto &row = table.row().cell(
                    static_cast<uint64_t>(points[p]));
            double best = 0.0, worst = 100.0;
            for (size_t pol = 0; pol < policies.size(); ++pol) {
                const double acc = accuracy(f, p, pol);
                best = std::max(best, acc);
                worst = std::min(worst, acc);
                row.cell(acc, 2);
            }
            row.cell(best - worst, 2);
            row.cell(unbounded - best, 2);
            if (best - worst > max_spread[f]) {
                max_spread[f] = best - worst;
                max_spread_budget[f] = points[p];
            }
        }
        auto &last = table.row().cell("unbounded");
        for (size_t pol = 0; pol < policies.size(); ++pol)
            last.cell(unbounded, 2);
        last.cell("").cell("");
    }

    report.text("where the victim policy matters:");
    for (size_t f = 0; f < families.size(); ++f) {
        if (max_spread[f] > 0.0) {
            report.textf("  %-5s max policy spread %.2fpp at %zu "
                         "entries",
                         families[f].c_str(), max_spread[f],
                         max_spread_budget[f]);
        } else {
            report.textf("  %-5s policies never diverged on this grid",
                         families[f].c_str());
        }
    }
    report.text("expected shape: at tiny budgets *capacity* misses "
                "dominate and every policy is\nequally starved; at "
                "ample budgets nothing evicts and the policies "
                "converge to the\nunbounded column — the policy "
                "choice matters only in the conflict-bound middle\n"
                "of the grid, and LRU is never the worst of the "
                "three.");
}

// ---------------------------------------------------------------------
// hybrid_split — one global §4.3 budget shared by a bounded hybrid's
// chooser, stride, and fcm tables, swept over a ratio grid (the
// ROADMAP hybrid-budget-splits item, expressible only since the spec
// grammar grew composed hybrids: hybrid(s2@...,fcm3@...;ch@...)).
// ---------------------------------------------------------------------

/** One way to carve a global budget, in sixteenths. */
struct HybridSplit
{
    int chooser;
    int stride;
    int fcm;
};

const std::vector<HybridSplit> &
hybridSplits()
{
    // Chooser 1/16 .. 4/16, stride 2/16 .. 10/16, the rest to fcm
    // (which spends its share 1:3 VHT:VPT like the capacity sweep).
    static const std::vector<HybridSplit> splits = {
        {1, 3, 12}, {2, 2, 12}, {2, 6, 8}, {2, 10, 4}, {4, 4, 8},
    };
    return splits;
}

const std::vector<size_t> &
hybridSplitBudgets()
{
    // Sixteenths stay way-aligned (16-way tables) for budgets >= 4096.
    static const std::vector<size_t> budgets = {
        4096, 16384, 65536, 1048576,
    };
    return budgets;
}

std::string
splitLabel(const HybridSplit &split)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%d:%d:%d", split.chooser,
                  split.stride, split.fcm);
    return buf;
}

std::string
hybridSplitSpec(size_t budget, const HybridSplit &split)
{
    const size_t chooser = budget * split.chooser / 16;
    const size_t stride = budget * split.stride / 16;
    const size_t fcm = budget - chooser - stride;
    const size_t vht = fcm / 4;
    return "hybrid(s2@" + std::to_string(stride) + "x16,fcm3@" +
           std::to_string(vht) + "/" + std::to_string(fcm - vht) +
           "x16;ch@" + std::to_string(chooser) + "x16)";
}

/** Bank layout: unbounded hybrid first, then budgets x splits
 *  (split-minor). */
size_t
hybridSplitIndex(size_t budget_index, size_t split_index)
{
    return 1 + budget_index * hybridSplits().size() + split_index;
}

SuiteOptions
hybridSplitOptions()
{
    SuiteOptions options;
    options.predictors = {"hybrid"};
    for (const size_t budget : hybridSplitBudgets()) {
        for (const auto &split : hybridSplits())
            options.predictors.push_back(hybridSplitSpec(budget, split));
    }
    return options;
}

void
runHybridSplit(const GridRuns &cells, Report &report)
{
    const auto &runs = cells.front();
    const auto &splits = hybridSplits();
    const auto &budgets = hybridSplitBudgets();

    report.text("(cells: suite-mean accuracy %, paper averaging rule; "
                "split = chooser:stride:fcm in\nsixteenths of one "
                "global entry budget; 16-way LRU tables, fcm share "
                "1:3 VHT:VPT)");
    report.text("");

    const double unbounded = meanAccuracyPct(runs, 0);
    auto &table = report.table("splits");
    auto &header = table.row().cell("split");
    for (const size_t budget : budgets)
        header.cell(static_cast<uint64_t>(budget));
    table.rule();
    std::vector<double> best(budgets.size(), 0.0);
    std::vector<size_t> best_split(budgets.size(), 0);
    for (size_t s = 0; s < splits.size(); ++s) {
        auto &row = table.row().cell(splitLabel(splits[s]));
        for (size_t b = 0; b < budgets.size(); ++b) {
            const double acc =
                    meanAccuracyPct(runs, hybridSplitIndex(b, s));
            if (acc > best[b]) {
                best[b] = acc;
                best_split[b] = s;
            }
            row.cell(acc, 2);
        }
    }
    table.rule();
    auto &last = table.row().cell("unbounded");
    for (size_t b = 0; b < budgets.size(); ++b)
        last.cell(unbounded, 2);

    for (size_t b = 0; b < budgets.size(); ++b) {
        report.textf("  %7zu entries: best split %s (%.2f%%, gap to "
                     "unbounded %.2fpp)",
                     budgets[b], splitLabel(splits[best_split[b]]).c_str(),
                     best[b], unbounded - best[b]);
    }
    const double gap = unbounded - best.back();
    report.textf("shape check: top-budget bounded hybrid within 0.1pp "
                 "of unbounded: %.3fpp %s",
                 gap, gap <= 0.1 ? "(ok)" : "(CHECK)");
    report.text("expected shape: at starved budgets the fcm-heavy "
                "splits win (contexts dominate\nthe working set) and "
                "a thin 1/16 chooser is enough; spending more than "
                "1/4 on the\nchooser never pays.");
}

// ---------------------------------------------------------------------
// aliasing — partial-tag widths vs the full-key baseline across the
// capacity grid (the ROADMAP partial-tags item): what does shrinking
// the stored tag cost, and where does constructive aliasing mask it?
// ---------------------------------------------------------------------

const std::vector<int> &
aliasingTagWidths()
{
    // Descending = tightening: 16 bits is near-lossless for
    // PC-indexed tables, 4 bits aliases aggressively everywhere.
    static const std::vector<int> widths = {16, 8, 4};
    return widths;
}

/**
 * The study's own bank: the partial-tag columns, family-major, then
 * budget, then tag width. The unbounded and full-key columns are
 * capacity's members, read from capacity's cells (see
 * replacementSweepSpecs).
 */
std::vector<std::string>
aliasingSweepSpecs()
{
    std::vector<std::string> specs;
    for (const auto &family : capacityFamilies()) {
        for (const size_t entries : capacitySweepPoints()) {
            const std::string base = boundedSpecFor(family, entries);
            for (const int bits : aliasingTagWidths()) {
                std::string tagged = base;
                tagged += "%";
                tagged += std::to_string(bits);
                specs.push_back(std::move(tagged));
            }
        }
    }
    return specs;
}

SuiteOptions
aliasingOptions()
{
    SuiteOptions options;
    options.predictors = aliasingSweepSpecs();
    return options;
}

void
runAliasing(const GridRuns &cells, Report &report)
{
    const auto &capacity = cells[0];
    const auto &runs = cells[1];
    const auto &families = capacityFamilies();
    const auto &points = capacitySweepPoints();
    const auto &widths = aliasingTagWidths();

    report.text("(16-way LRU tables on the capacity-sweep grid; cells: "
                "suite-mean accuracy %,\npaper averaging rule; %T "
                "stores only the low T key bits as the tag, so\n"
                "distinct keys alias — constructively when the "
                "foreign entry happens to be\nright, destructively "
                "otherwise; drift = full-key - 4-bit column)");
    report.text("");

    // Where partial tags hurt most, per family.
    std::vector<double> max_drift(families.size(), 0.0);
    std::vector<size_t> max_drift_budget(families.size(), 0);

    for (size_t f = 0; f < families.size(); ++f) {
        report.text(families[f]);
        auto &table = report.table("tags_" + families[f]);
        auto &header = table.row().cell("entries").cell("full");
        for (const int bits : widths) {
            std::string label = "%";
            label += std::to_string(bits);
            header.cell(label);
        }
        header.cell("drift");
        table.rule();
        for (size_t p = 0; p < points.size(); ++p) {
            auto &row = table.row().cell(
                    static_cast<uint64_t>(points[p]));
            const double full = meanAccuracyPct(
                    capacity, capacitySpecIndex(f, p));
            row.cell(full, 2);
            double narrowest = full;
            const size_t first = (f * points.size() + p) * widths.size();
            for (size_t w = 0; w < widths.size(); ++w) {
                narrowest = meanAccuracyPct(runs, first + w);
                row.cell(narrowest, 2);
            }
            row.cell(full - narrowest, 2);
            if (full - narrowest > max_drift[f]) {
                max_drift[f] = full - narrowest;
                max_drift_budget[f] = points[p];
            }
        }
        auto &last = table.row().cell("unbounded");
        last.cell(meanAccuracyPct(capacity, capacityUnboundedIndex(f)), 2);
        for (size_t w = 0; w <= widths.size(); ++w)
            last.cell("");
    }

    report.text("where partial tags hurt:");
    for (size_t f = 0; f < families.size(); ++f) {
        if (max_drift[f] > 0.0) {
            report.textf("  %-5s max 4-bit-tag drift %.2fpp at %zu "
                         "entries",
                         families[f].c_str(), max_drift[f],
                         max_drift_budget[f]);
        } else {
            report.textf("  %-5s 4-bit tags never lost to full keys "
                         "on this grid",
                         families[f].c_str());
        }
    }

    // Alias outcome anatomy, from the tables' own shadow counters
    // (core/bounded_table.hh): 4096 sequential static PCs — the
    // address stream a real PC-indexed table sees — on a 256-entry
    // table. Every second PC produces one shared constant (aliasing
    // among those entries is harmless), the rest per-PC values
    // (aliasing onto them mispredicts). No workload cells: the
    // stream is synthetic, like table1's.
    report.text("");
    report.text("alias outcomes, synthetic stream (4096 sequential "
                "statics, 256-entry 4-way lv\ntable; every 2nd PC a "
                "shared constant, the rest per-PC values):");
    auto &anatomy = report.table("alias_outcomes");
    anatomy.row().cell("tag").cell("aliased updates")
            .cell("constructive").cell("destructive").rule();
    for (const int bits : widths) {
        core::BoundedTableConfig geometry;
        geometry.entries = 256;
        geometry.ways = 4;
        geometry.tagBits = bits;
        core::BoundedLastValuePredictor lv({}, geometry);
        for (uint64_t round = 0; round < 8; ++round) {
            for (uint64_t pc = 0; pc < 4096; ++pc)
                lv.update(pc, pc % 2 == 0 ? 42 : pc * 7 + 1);
        }
        std::string label = "%";
        label += std::to_string(bits);
        auto &row = anatomy.row().cell(label);
        row.cell(static_cast<uint64_t>(lv.table().aliasedTouches()));
        row.cell(static_cast<uint64_t>(lv.table().aliasConstructive()));
        row.cell(static_cast<uint64_t>(lv.table().aliasDestructive()));
    }
    report.text("expected: narrower tags alias more; the "
                "constant-valued half of the stream\naliases "
                "constructively (the foreign entry already holds the "
                "right value), the\nper-PC half destructively.");

    report.text("expected shape: 16-bit tags track the full-key "
                "columns (PC working sets fit\n16 bits; fcm context "
                "hashes rarely collide in the low 16); 4-bit tags "
                "alias\nhard once capacity stops being the binding "
                "constraint — destructive aliasing\ngrows with the "
                "budget, the inverse of the capacity gap.");
}

} // anonymous namespace

void
registerStudies(ExperimentRegistry &registry)
{
    registry.add(Experiment{
        "hybrid",
        "Extension (Section 4.2): hybrid stride+fcm with a "
        "PC-indexed chooser",
        "chooser hybrid vs its components vs the oracle union",
        [](const ExperimentConfig &) {
            return std::vector<SuiteOptions>{hybridOptions()};
        },
        runHybrid,
    });
    registry.add(Experiment{
        "ablation_blending",
        "Ablation: fcm blending and counter policies "
        "(order 3, % correct)",
        "fcm lazy exclusion vs full vs no blending vs small "
        "counters",
        [](const ExperimentConfig &) {
            return std::vector<SuiteOptions>{blendingOptions()};
        },
        runAblationBlending,
    });
    registry.add(Experiment{
        "ablation_hysteresis",
        "Ablation: hysteresis policies of the computational "
        "predictors (% correct)",
        "last-value and stride update-policy variants side by side",
        [](const ExperimentConfig &) {
            return std::vector<SuiteOptions>{hysteresisOptions()};
        },
        runAblationHysteresis,
    });
    registry.add(Experiment{
        "capacity",
        "Capacity sweep: bounded predictor accuracy (%) per total "
        "entry budget",
        "bounded tables from 256 entries to the unbounded "
        "idealisation",
        [](const ExperimentConfig &) {
            return std::vector<SuiteOptions>{capacitySweepOptions()};
        },
        runCapacity,
    });
    registry.add(Experiment{
        "confidence",
        "Confidence sweep: gating predictions on per-PC saturating "
        "counters",
        "coverage/accuracy/profit over a counter width x threshold "
        "grid",
        [](const ExperimentConfig &) {
            return std::vector<SuiteOptions>{
                confidenceSweepOptions()};
        },
        runConfidence,
    });
    registry.add(Experiment{
        "replacement",
        "Replacement-policy study: LRU vs FIFO vs random victims "
        "across the capacity grid",
        "where the victim policy matters vs where capacity "
        "dominates",
        [](const ExperimentConfig &) {
            return std::vector<SuiteOptions>{capacitySweepOptions(),
                                             replacementOptions()};
        },
        runReplacement,
    });
    registry.add(Experiment{
        "hybrid_split",
        "Hybrid budget splits: chooser/stride/fcm sharing one global "
        "entry budget (Section 4.3)",
        "bounded hybrid accuracy over a chooser:stride:fcm ratio "
        "grid per budget",
        [](const ExperimentConfig &) {
            return std::vector<SuiteOptions>{hybridSplitOptions()};
        },
        runHybridSplit,
    });
    registry.add(Experiment{
        "aliasing",
        "Partial tags: tag-width sweep vs full-key tables across "
        "the capacity grid",
        "constructive vs destructive aliasing as hardware tag "
        "widths shrink",
        [](const ExperimentConfig &) {
            return std::vector<SuiteOptions>{capacitySweepOptions(),
                                             aliasingOptions()};
        },
        runAliasing,
    });
}

} // namespace vp::exp::experiments
