/**
 * @file
 * Accuracy accounting for one predictor over one trace.
 */

#ifndef VP_CORE_STATS_HH
#define VP_CORE_STATS_HH

#include <array>
#include <bit>
#include <cstddef>
#include <cstdint>

#include "isa/opcode.hh"

namespace vp::core {

/**
 * Per-predictor prediction counts, overall and per category.
 *
 * "Accuracy" is correct predictions over *all* prediction-eligible
 * dynamic instructions, so events where a predictor declines (cold
 * entry, or a confidence gate below threshold) count against it — the
 * same accounting as the paper's figures.
 *
 * Declines are additionally tracked as not-predicted, which yields
 * the gated triple the confidence study (Section 4 speculation
 * control) reports:
 *
 *  - coverage():             predicted / eligible events
 *  - accuracyWhenPredicted() correct / predicted events
 *  - profit(cost):           correct - cost x incorrect predictions,
 *                            a speculation-profit proxy where @p cost
 *                            is the misprediction recovery penalty in
 *                            units of a correct prediction's gain.
 */
class PredictionStats
{
  public:
    void
    record(isa::Category cat, bool predicted, bool correct)
    {
        ++total_;
        ++catTotal_[static_cast<int>(cat)];
        if (predicted) {
            ++predicted_;
            ++catPredicted_[static_cast<int>(cat)];
        }
        if (correct) {
            ++correct_;
            ++catCorrect_[static_cast<int>(cat)];
        }
    }

    /**
     * record() for the @p events events of category @p cat in one
     * batch, at once: bit i of @p mask marks event i as one of them,
     * and bit i of @p valid / @p correct says whether that event was
     * predicted / predicted correctly. Each row is @p words 64-bit
     * words (core::bits), and @p events is the popcount of @p mask.
     */
    void
    recordBatch(isa::Category cat, uint64_t events, const uint64_t *mask,
                const uint64_t *valid, const uint64_t *correct,
                size_t words)
    {
        uint64_t predicted = 0;
        uint64_t right = 0;
        for (size_t w = 0; w < words; ++w) {
            predicted += static_cast<uint64_t>(
                    std::popcount(valid[w] & mask[w]));
            right += static_cast<uint64_t>(
                    std::popcount(correct[w] & mask[w]));
        }
        total_ += events;
        catTotal_[static_cast<int>(cat)] += events;
        predicted_ += predicted;
        catPredicted_[static_cast<int>(cat)] += predicted;
        correct_ += right;
        catCorrect_[static_cast<int>(cat)] += right;
    }

    uint64_t total() const { return total_; }
    uint64_t predicted() const { return predicted_; }
    uint64_t correct() const { return correct_; }

    uint64_t
    total(isa::Category cat) const
    {
        return catTotal_[static_cast<int>(cat)];
    }

    uint64_t
    predicted(isa::Category cat) const
    {
        return catPredicted_[static_cast<int>(cat)];
    }

    uint64_t
    correct(isa::Category cat) const
    {
        return catCorrect_[static_cast<int>(cat)];
    }

    /** Overall accuracy in [0,1]: correct over all eligible events. */
    double
    accuracy() const
    {
        return total_ ? static_cast<double>(correct_) / total_ : 0.0;
    }

    /** Per-category accuracy in [0,1]. */
    double
    accuracy(isa::Category cat) const
    {
        const auto t = total(cat);
        return t ? static_cast<double>(correct(cat)) / t : 0.0;
    }

    /** Fraction of eligible events actually predicted, in [0,1]. */
    double
    coverage() const
    {
        return total_ ? static_cast<double>(predicted_) / total_ : 0.0;
    }

    double
    coverage(isa::Category cat) const
    {
        const auto t = total(cat);
        return t ? static_cast<double>(predicted(cat)) / t : 0.0;
    }

    /** Accuracy over predicted events only; 0 when nothing predicted. */
    double
    accuracyWhenPredicted() const
    {
        return predicted_ ? static_cast<double>(correct_) / predicted_
                          : 0.0;
    }

    double
    accuracyWhenPredicted(isa::Category cat) const
    {
        const auto p = predicted(cat);
        return p ? static_cast<double>(correct(cat)) / p : 0.0;
    }

    /**
     * Speculation-profit proxy: correct - @p cost x incorrect, where
     * incorrect counts *acted-on* wrong predictions (predicted but
     * not correct) — declines are free. Expressed per eligible event
     * so it is comparable across workloads; always-correct gives 1,
     * never-predicting gives 0, and an always-predicting predictor
     * goes negative once its error rate exceeds 1 / (1 + cost).
     */
    double
    profit(double cost) const
    {
        if (!total_)
            return 0.0;
        const double wrong =
                static_cast<double>(predicted_ - correct_);
        return (static_cast<double>(correct_) - cost * wrong) /
               static_cast<double>(total_);
    }

    void
    merge(const PredictionStats &other)
    {
        total_ += other.total_;
        predicted_ += other.predicted_;
        correct_ += other.correct_;
        for (int i = 0; i < isa::numCategories; ++i) {
            catTotal_[i] += other.catTotal_[i];
            catPredicted_[i] += other.catPredicted_[i];
            catCorrect_[i] += other.catCorrect_[i];
        }
    }

  private:
    uint64_t total_ = 0;
    uint64_t predicted_ = 0;
    uint64_t correct_ = 0;
    std::array<uint64_t, isa::numCategories> catTotal_{};
    std::array<uint64_t, isa::numCategories> catPredicted_{};
    std::array<uint64_t, isa::numCategories> catCorrect_{};
};

} // namespace vp::core

#endif // VP_CORE_STATS_HH
