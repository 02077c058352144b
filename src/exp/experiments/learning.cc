/**
 * @file
 * Synthetic-sequence experiments (no workload cells): Table 1 and
 * Figure 2 of the paper, converted from bench/exp_table1.cc and
 * bench/exp_figure2.cc into registrations.
 */

#include <cstdio>
#include <string>
#include <vector>

#include "core/fcm.hh"
#include "core/last_value.hh"
#include "core/learning.hh"
#include "core/stride.hh"
#include "exp/experiments/modules.hh"
#include "synth/sequences.hh"

namespace vp::exp::experiments {

namespace {

using namespace vp::core;
using namespace vp::synth;

// ---------------------------------------------------------------------
// table1 — learning time (LT) and learning degree (LD) of the last
// value / stride / fcm models on the Section 1.1 sequence classes.
// Paper values: last value works only for C (LT 1, LD 100); stride
// learns C and S in <=2 values and gets (p-1)/p on RS; a pure order-o
// fcm learns any repeating sequence after one period plus its order.
// ---------------------------------------------------------------------

constexpr int table1FcmOrder = 2;
constexpr size_t table1Period = 6;

struct SequenceCase
{
    const char *name;
    std::vector<uint64_t> values;
};

std::vector<SequenceCase>
sequenceCases()
{
    return {
        {"C", constantSeq(5, 600)},
        {"S", strideSeq(1, 1, 600)},
        {"NS", nonStrideSeq(42, 600)},
        {"RS", repeatedStrideSeq(1, 1, table1Period, 600)},
        {"RNS", repeatedNonStrideSeq(7, table1Period, 600)},
    };
}

std::string
fmtLt(int64_t lt)
{
    return lt < 0 ? "-" : std::to_string(lt);
}

std::string
fmtLd(int64_t lt, double ld)
{
    if (lt < 0)
        return "-";
    char buf[32];
    std::snprintf(buf, sizeof(buf), "%.0f", 100.0 * ld);
    return buf;
}

void
runTable1(const GridRuns &, Report &report)
{
    report.textf("(last value; two-delta stride; pure order-%d fcm; "
                 "repeating period p = %zu)",
                 table1FcmOrder, table1Period);
    report.text("");

    auto &table = report.table("learning");
    table.row().cell("sequence")
         .cell("LV LT").cell("LV LD%")
         .cell("S2 LT").cell("S2 LD%")
         .cell("FCM LT").cell("FCM LD%")
         .cell("| paper (LV/S2/FCM)")
         .rule();

    const char *paper_rows[] = {
        "1,100 / 1,100 / o,100",
        "- / 2,100 / -",
        "- / - / -",
        "- / 2,(p-1)/p / p+o,100",
        "- / - / p+o,100",
    };

    int row_index = 0;
    for (const auto &seq_case : sequenceCases()) {
        LastValuePredictor lv;
        StridePredictor s2;
        FcmConfig fc;
        fc.order = table1FcmOrder;
        fc.blending = FcmBlending::None;
        FcmPredictor fcm(fc);

        const auto r_lv = analyzeLearning(lv, seq_case.values);
        const auto r_s2 = analyzeLearning(s2, seq_case.values);
        const auto r_fcm = analyzeLearning(fcm, seq_case.values);

        table.row().cell(seq_case.name);
        table.cell(fmtLt(r_lv.learningTime));
        table.cell(fmtLd(r_lv.learningTime, r_lv.learningDegree));
        table.cell(fmtLt(r_s2.learningTime));
        table.cell(fmtLd(r_s2.learningTime, r_s2.learningDegree));
        table.cell(fmtLt(r_fcm.learningTime));
        table.cell(fmtLd(r_fcm.learningTime, r_fcm.learningDegree));
        table.cell(paper_rows[row_index++]);
    }

    report.textf("notes: LT counts values observed before the first "
                 "correct prediction;\n"
                 "LD is %% correct after it. Low-LD rows correspond to "
                 "the paper's '-' cells\n"
                 "(predictor unsuited to the sequence). Expected here: "
                 "RS stride LD = %.0f%%,\n"
                 "fcm LT on RS/RNS = p+o = %zu.",
                 100.0 * (table1Period - 1) / table1Period,
                 table1Period + table1FcmOrder);
}

// ---------------------------------------------------------------------
// figure2 — computational vs context based prediction on a period-4
// repeated stride sequence. Paper result: the stride predictor learns
// after 2 values but keeps repeating the same mistake at each wrap
// (LD 75% at p=4); the order-2 fcm needs period+order = 6 values and
// then never misses.
// ---------------------------------------------------------------------

void
appendTrace(Report &report, const char *label,
            const std::vector<uint64_t> &seq,
            const LearningResult &result)
{
    char buf[32];
    std::string predictions;
    std::snprintf(buf, sizeof(buf), "%-24s", label);
    predictions = buf;
    for (size_t i = 0; i < seq.size(); ++i) {
        const auto &p = result.predictionAt[i];
        if (!p.valid) {
            predictions += "  .";
        } else {
            std::snprintf(buf, sizeof(buf), " %2llu",
                          static_cast<unsigned long long>(p.value));
            predictions += buf;
        }
    }
    report.text(predictions);

    std::snprintf(buf, sizeof(buf), "%-24s", "");
    std::string verdicts = buf;
    for (size_t i = 0; i < seq.size(); ++i) {
        verdicts += "  ";
        verdicts += result.correctAt[i] ? '=' : 'x';
    }
    report.text(verdicts);
}

void
runFigure2(const GridRuns &, Report &report)
{
    const size_t period = 4;
    const auto seq = repeatedStrideSeq(1, 1, period, 16);

    StridePredictor stride;
    FcmConfig fc;
    fc.order = 2;
    fc.blending = FcmBlending::None;
    FcmPredictor fcm(fc);

    const auto r_stride = analyzeLearning(stride, seq);
    const auto r_fcm = analyzeLearning(fcm, seq);

    report.textf("repeated stride, period = %zu", period);
    report.text("");

    char buf[32];
    std::snprintf(buf, sizeof(buf), "%-24s", "value sequence");
    std::string values = buf;
    for (const uint64_t v : seq) {
        std::snprintf(buf, sizeof(buf), " %2llu",
                      static_cast<unsigned long long>(v));
        values += buf;
    }
    report.text(values);
    report.text("");

    appendTrace(report, "stride (2-delta)", seq, r_stride);
    report.text("");
    appendTrace(report, "context (fcm order 2)", seq, r_fcm);

    report.textf("\nmeasured: stride LT=%lld LD=%.0f%%  (paper: 2, "
                 "75%%)",
                 static_cast<long long>(r_stride.learningTime),
                 100.0 * r_stride.learningDegree);
    report.textf("measured: fcm    LT=%lld LD=%.0f%%  (paper: "
                 "period+order=6, 100%%)",
                 static_cast<long long>(r_fcm.learningTime),
                 100.0 * r_fcm.learningDegree);
    report.text("('.' = no prediction, '=' correct, 'x' wrong; "
                "steady state: stride repeats\n"
                " the same mistake at each wrap, the context "
                "predictor never misses.)");
}

} // anonymous namespace

void
registerLearning(ExperimentRegistry &registry)
{
    registry.add(Experiment{
        "table1",
        "Table 1: Behavior of Prediction Models for Different "
        "Value Sequences",
        "learning time/degree of lv, s2 and pure fcm per sequence "
        "class (C, S, NS, RS, RNS)",
        nullptr,        // synthetic sequences, no workload cells
        runTable1,
    });
    registry.add(Experiment{
        "figure2",
        "Figure 2: Computational vs Context Based Prediction",
        "stride vs order-2 fcm traced value-by-value on a repeated "
        "stride sequence",
        nullptr,        // synthetic sequences, no workload cells
        runFigure2,
    });
}

} // namespace vp::exp::experiments
