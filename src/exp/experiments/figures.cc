/**
 * @file
 * The suite figures of the paper — Figures 3 through 11 — converted
 * from the bench/exp_figure*.cc binaries into registrations. The
 * category figures 4-7 share one helper (the old
 * bench/category_figure.hh, now reduced to a report builder).
 */

#include <string>
#include <vector>

#include "core/improvement.hh"
#include "core/overlap.hh"
#include "core/value_profile.hh"
#include "exp/experiments/modules.hh"
#include "exp/paper_data.hh"

namespace vp::exp::experiments {

namespace {

// ---------------------------------------------------------------------
// figure3 — overall prediction success of l / s2 / fcm1-3 per
// benchmark. Paper: l ~40%, s2 ~56%, fcm3 ~78%, with
// l < s2 < fcm1 < fcm2 < fcm3 throughout.
// ---------------------------------------------------------------------

SuiteOptions
figure3Options()
{
    SuiteOptions options;
    options.predictors = {"l", "s2", "fcm1", "fcm2", "fcm3"};
    return options;
}

void
runFigure3(const GridRuns &cells, Report &report)
{
    const auto options = figure3Options();
    const auto &runs = cells.front();

    auto &table = report.table("accuracy");
    table.row().cell("benchmark");
    for (const auto &spec : options.predictors)
        table.cell(spec);
    table.cell("| paper fcm3");
    table.rule();

    for (const auto &run : runs) {
        table.row().cell(run.name);
        for (size_t i = 0; i < options.predictors.size(); ++i)
            table.cell(run.accuracyPct(i), 1);
        table.cell(paper::figure3Fcm3(run.name), 0);
    }
    table.rule();
    table.row().cell("mean");
    for (size_t i = 0; i < options.predictors.size(); ++i)
        table.cell(meanAccuracyPct(runs, i), 1);
    table.cell(paper::figure3Fcm3("mean"), 0);

    report.text("shape checks (paper: l < s2 < fcm1 < fcm2 < fcm3):");
    bool ordered = true;
    for (const auto &run : runs) {
        for (size_t i = 1; i < options.predictors.size(); ++i) {
            if (run.accuracyPct(i) + 1e-9 < run.accuracyPct(i - 1)) {
                report.textf("  ORDER VIOLATION in %s: %s (%.1f) < %s "
                             "(%.1f)",
                             run.name.c_str(),
                             options.predictors[i].c_str(),
                             run.accuracyPct(i),
                             options.predictors[i - 1].c_str(),
                             run.accuracyPct(i - 1));
                ordered = false;
            }
        }
    }
    if (ordered)
        report.text("  predictor ordering holds for every benchmark");
    report.textf("  fcm3 - s2 mean gap: %.1f points (paper: ~22)",
                 meanAccuracyPct(runs, 4) - meanAccuracyPct(runs, 1));
}

// ---------------------------------------------------------------------
// figures 4-7 — per-category prediction success, the old
// bench/category_figure.hh hoisted into the ReportWriter model.
// ---------------------------------------------------------------------

void
runCategoryFigure(const GridRuns &cells, Report &report,
                  isa::Category cat, const char *paper_note)
{
    const auto options = figure3Options();
    const auto &runs = cells.front();

    auto &table = report.table("accuracy");
    table.row().cell("benchmark");
    for (const auto &spec : options.predictors)
        table.cell(spec);
    table.cell("dyn share%");
    table.rule();

    for (const auto &run : runs) {
        table.row().cell(run.name);
        for (size_t i = 0; i < options.predictors.size(); ++i)
            table.cell(run.accuracyPct(i, cat), 1);
        table.cell(100.0 * run.exec.categoryShare(cat), 1);
    }
    table.rule();
    table.row().cell("mean");
    for (size_t i = 0; i < options.predictors.size(); ++i)
        table.cell(meanAccuracyPct(runs, i, cat), 1);
    table.cell("");

    report.textf("paper: %s", paper_note);
}

Experiment
categoryFigure(const std::string &name, int figure_number,
               isa::Category cat, const std::string &description,
               const char *paper_note)
{
    return Experiment{
        name,
        "Figure " + std::to_string(figure_number) +
                ": Prediction Success for " +
                std::string(isa::categoryName(cat)) +
                " Instructions (% of predictions)",
        description,
        [](const ExperimentConfig &) {
            return std::vector<SuiteOptions>{figure3Options()};
        },
        [cat, paper_note](const GridRuns &cells, Report &report) {
            runCategoryFigure(cells, report, cat, paper_note);
        },
    };
}

// ---------------------------------------------------------------------
// figure8 — which subsets of {last value, stride, fcm3} predict each
// dynamic instruction correctly. Paper: ~18% predicted by none, ~40%
// by all three, >20% only by fcm.
// ---------------------------------------------------------------------

SuiteOptions
figure8Options()
{
    SuiteOptions options;
    options.predictors = {"l", "s2", "fcm3"};
    options.overlap = 3;
    return options;
}

void
runFigure8(const GridRuns &cells, Report &report)
{
    static const char *bucket_names[8] = {"np", "l",  "s",  "ls",
                                          "f",  "lf", "sf", "lsf"};
    const auto &runs = cells.front();

    core::OverlapTracker all(3);
    for (const auto &run : runs)
        all.merge(*run.overlap);

    report.text("subset letters: l = last value, s = stride s2, "
                "f = fcm3; np = none correct");
    report.text("");

    auto &table = report.table("subsets");
    table.row().cell("subset").cell("All");
    for (const auto cat : reportedCategories())
        table.cell(std::string(isa::categoryName(cat)));
    table.rule();
    for (int mask = 0; mask < 8; ++mask) {
        table.row().cell(bucket_names[mask]);
        table.cell(100.0 * all.fraction(static_cast<uint32_t>(mask)),
                   1);
        for (const auto cat : reportedCategories()) {
            table.cell(100.0 * all.fraction(
                               cat, static_cast<uint32_t>(mask)),
                       1);
        }
    }

    const double np = 100.0 * all.fraction(0b000);
    const double lsf = 100.0 * all.fraction(0b111);
    const double f_only = 100.0 * all.fraction(0b100);
    const double not_f_comp = 100.0 * (all.fraction(0b001) +
                                       all.fraction(0b010) +
                                       all.fraction(0b011));
    const double l_only = 100.0 * all.fraction(0b001);

    report.text("summary vs paper:");
    report.textf("  np     = %5.1f%%  (paper ~%.0f%%)", np,
                 paper::Figure8::np);
    report.textf("  lsf    = %5.1f%%  (paper ~%.0f%%)", lsf,
                 paper::Figure8::lsf);
    report.textf("  f only = %5.1f%%  (paper >%.0f%%)", f_only,
                 paper::Figure8::fOnly);
    report.textf("  l/s/ls = %5.1f%%  (paper <5%%: computational "
                 "predictors add little beyond fcm)",
                 not_f_comp);
    report.textf("  l only = %5.1f%%  (paper: last value adds "
                 "almost nothing)",
                 l_only);
    report.textf("  oracle union(l,s,f) accuracy = %.1f%%",
                 100.0 * all.unionFraction(0b111));
}

// ---------------------------------------------------------------------
// figure9 — cumulative improvement of fcm over stride vs the
// percentage of static instructions. Paper: ~20% of statics account
// for ~97% of fcm's total improvement over stride.
// ---------------------------------------------------------------------

SuiteOptions
figure9Options()
{
    SuiteOptions options;
    options.predictors = {"s2", "fcm3"};
    options.improvementA = 1;       // fcm3 ...
    options.improvementB = 0;       // ... over s2
    return options;
}

double
curveValueAt(
        const std::vector<core::ImprovementTracker::CurvePoint> &curve,
        double static_pct)
{
    double best = 0.0;
    for (const auto &point : curve) {
        if (point.staticPct <= static_pct)
            best = point.improvementPct;
        else
            break;
    }
    return best;
}

void
runFigure9(const GridRuns &cells, Report &report)
{
    const auto &runs = cells.front();

    report.text("rows: % of static instructions (sorted by "
                "improvement); cells: % of total improvement");
    report.text("");

    auto &table = report.table("improvement");
    table.row().cell("% statics");
    for (const auto &run : runs)
        table.cell(run.name);
    table.rule();

    for (double x : {5.0, 10.0, 15.0, 20.0, 30.0, 40.0, 60.0, 100.0}) {
        char label[16];
        std::snprintf(label, sizeof(label), "%.0f", x);
        table.row().cell(label);
        for (const auto &run : runs) {
            const auto curve = run.improvement->curve();
            table.cell(curveValueAt(curve, x), 1);
        }
    }

    report.text("statics needed for 90% / 97% of the improvement "
                "(paper: ~20% of statics -> ~97%):");
    for (const auto &run : runs) {
        report.textf("  %-9s %5.1f%% / %5.1f%%", run.name.c_str(),
                     run.improvement->staticPctForImprovement(0.90),
                     run.improvement->staticPctForImprovement(0.97));
    }
}

// ---------------------------------------------------------------------
// figure10 — unique values generated per static instruction. Paper:
// >=50% of statics generate one value; ~90% generate fewer than 64.
// ---------------------------------------------------------------------

SuiteOptions
figure10Options()
{
    SuiteOptions options;
    options.predictors = {"l"};
    options.values = true;
    return options;
}

void
runFigure10(const GridRuns &cells, Report &report)
{
    const auto &runs = cells.front();

    // The paper aggregates over the whole suite; average the
    // per-benchmark distributions (arithmetic mean, as everywhere).
    auto averaged = [&](std::optional<isa::Category> cat) {
        core::ValueProfiler::Distribution mean{};
        for (const auto &run : runs) {
            const auto dist = run.values->distribution(cat);
            for (int i = 0; i < core::ValueProfiler::numBuckets; ++i) {
                mean.staticShare[i] +=
                        dist.staticShare[i] / runs.size();
                mean.dynamicShare[i] +=
                        dist.dynamicShare[i] / runs.size();
            }
        }
        return mean;
    };

    report.text("cells: % of static (s.) / dynamic (d.) instructions "
                "whose static generates <= N unique values");
    report.text("");

    auto &table = report.table("values");
    table.row().cell("values");
    table.cell("s.All");
    for (const auto cat : reportedCategories())
        table.cell("s." + std::string(isa::categoryName(cat)));
    table.cell("d.All");
    for (const auto cat : reportedCategories())
        table.cell("d." + std::string(isa::categoryName(cat)));
    table.rule();

    const auto all = averaged(std::nullopt);
    std::vector<core::ValueProfiler::Distribution> per_cat;
    for (const auto cat : reportedCategories())
        per_cat.push_back(averaged(cat));

    for (int bucket = 0; bucket < core::ValueProfiler::numBuckets;
         ++bucket) {
        table.row().cell(core::ValueProfiler::bucketLabel(bucket));
        table.cell(100.0 * all.staticShare[bucket], 1);
        for (const auto &dist : per_cat)
            table.cell(100.0 * dist.staticShare[bucket], 1);
        table.cell(100.0 * all.dynamicShare[bucket], 1);
        for (const auto &dist : per_cat)
            table.cell(100.0 * dist.dynamicShare[bucket], 1);
    }

    // The bullet list from Section 4.3.
    double s1 = 0, s64 = 0, d64 = 0, d4096 = 0;
    for (const auto &run : runs) {
        s1 += 100.0 * run.values->staticFractionAtMost(1) / runs.size();
        s64 += 100.0 * run.values->staticFractionAtMost(64) /
               runs.size();
        d64 += 100.0 * run.values->dynamicFractionAtMost(64) /
               runs.size();
        d4096 += 100.0 * run.values->dynamicFractionAtMost(4096) /
                 runs.size();
    }
    report.text("Section 4.3 bullets, measured vs paper:");
    report.textf("  statics generating one value:   %5.1f%%  "
                 "(paper >50%%; proxies lack cold code)",
                 s1);
    report.textf("  statics generating <64 values:  %5.1f%%  "
                 "(paper ~90%%)",
                 s64);
    report.textf("  dynamics from statics <64:      %5.1f%%  "
                 "(paper >50%%)",
                 d64);
    report.textf("  dynamics from statics <=4096:   %5.1f%%  "
                 "(paper >90%%)",
                 d4096);
}

// ---------------------------------------------------------------------
// figure11 — sensitivity of gcc's fcm accuracy to the predictor
// order, orders 1 through 8. Paper: ~71.5% (order 1) to ~83% (order
// 8) with clearly diminishing returns.
// ---------------------------------------------------------------------

SuiteOptions
figure11Options(int order)
{
    SuiteOptions options;
    options.predictors = {"fcm" + std::to_string(order)};
    options.benchmarks = {"gcc"};
    // A slightly reduced scale keeps the order-8 exact tables
    // affordable while using the same input.
    options.config.scale = 60;
    return options;
}

void
runFigure11(const GridRuns &cells, Report &report)
{
    auto &table = report.table("order_sensitivity");
    table.row().cell("order").cell("accuracy %").cell("gain")
         .cell("| paper %").rule();

    double previous = 0.0;
    std::vector<double> gains;
    for (size_t i = 0; i < cells.size(); ++i) {
        const int order = static_cast<int>(i) + 1;     // grid order
        const double acc = cells[i].front().accuracyPct(0);

        table.row().cell(order);
        table.cell(acc, 1);
        if (order == 1) {
            table.cell("");
        } else {
            table.cell(acc - previous, 2);
            gains.push_back(acc - previous);
        }
        table.cell(paper::figure11Accuracy(order), 1);
        previous = acc;
    }

    // Diminishing-returns check: later gains smaller than early ones.
    const double early = gains.front();
    const double late = gains.back();
    report.textf("gain order1->2: %.2f, order7->8: %.2f — %s", early,
                 late,
                 late < early ? "diminishing returns, as in the paper"
                              : "CHECK: no diminishing returns");
}

std::vector<SuiteOptions>
singleSuiteGrid(SuiteOptions options)
{
    return {std::move(options)};
}

} // anonymous namespace

void
registerFigures(ExperimentRegistry &registry)
{
    registry.add(Experiment{
        "figure3",
        "Figure 3: Prediction Success for All Instructions "
        "(% of predictions)",
        "overall accuracy of l, s2 and fcm1-3 per benchmark",
        [](const ExperimentConfig &) {
            return singleSuiteGrid(figure3Options());
        },
        runFigure3,
    });
    registry.add(categoryFigure(
            "figure4", 4, isa::Category::AddSub,
            "per-category success: add/subtract instructions",
            "add/subtract is the most stride-predictable category; "
            "stride clearly beats\nlast value here (the predictor "
            "operation matches the instruction), and fcm\nbeats "
            "both."));
    registry.add(categoryFigure(
            "figure5", 5, isa::Category::Loads,
            "per-category success: load instructions",
            "loads are harder than add/subtract for every predictor; "
            "stride gains over\nlast value are small because loaded "
            "values rarely stride."));
    registry.add(categoryFigure(
            "figure6", 6, isa::Category::Logic,
            "per-category success: logic instructions",
            "logical instructions are very predictable, especially "
            "by fcm (flag-like\nvalues recur in patterns); stride "
            "adds little over last value."));
    registry.add(categoryFigure(
            "figure7", 7, isa::Category::Shift,
            "per-category success: shift instructions",
            "shifts are the most difficult category to predict "
            "correctly; the stride\noperation does not match the "
            "shift functionality, so stride sits close to\nlast "
            "value (Section 4.1 suggests per-type computational "
            "predictors)."));
    registry.add(Experiment{
        "figure8",
        "Figure 8: Contribution of different Predictors "
        "(% of predictions)",
        "overlap of the correct sets of l, s2 and fcm3",
        [](const ExperimentConfig &) {
            return singleSuiteGrid(figure8Options());
        },
        runFigure8,
    });
    registry.add(Experiment{
        "figure9",
        "Figure 9: Cumulative Improvement of FCM over Stride",
        "per-static improvement concentration of fcm3 over s2",
        [](const ExperimentConfig &) {
            return singleSuiteGrid(figure9Options());
        },
        runFigure9,
    });
    registry.add(Experiment{
        "figure10",
        "Figure 10: Values and Instruction Behavior",
        "unique values per static instruction, static and dynamic "
        "views",
        [](const ExperimentConfig &) {
            return singleSuiteGrid(figure10Options());
        },
        runFigure10,
    });
    registry.add(Experiment{
        "figure11",
        "Figure 11: Sensitivity of 126.gcc to the FCM Order "
        "(input gcc.i)",
        "gcc accuracy for fcm orders 1 through 8",
        [](const ExperimentConfig &) {
            std::vector<SuiteOptions> grid;
            for (int order = 1; order <= 8; ++order)
                grid.push_back(figure11Options(order));
            return grid;
        },
        runFigure11,
    });
}

} // namespace vp::exp::experiments
