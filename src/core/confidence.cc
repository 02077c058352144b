#include "core/confidence.hh"

#include <stdexcept>
#include <string>

namespace vp::core {

std::string
confidenceSuffix(const ConfidenceConfig &config)
{
    std::string s = ":c";
    s += std::to_string(config.width);
    s += "t";
    s += std::to_string(config.threshold);
    if (config.penalty == ConfidencePenalty::Decrement)
        s += "d";
    return s;
}

ConfidencePredictor::ConfidencePredictor(SharedPredictor inner,
                                         ConfidenceConfig config)
    : inner_(std::move(inner)), config_(config)
{
    if (inner_ == nullptr)
        throw std::invalid_argument("confidence needs a predictor");
    if (config_.width < 1 || config_.width > 16) {
        throw std::invalid_argument(
                "confidence width must be in [1, 16]");
    }
    if (config_.threshold < 0)
        throw std::invalid_argument("confidence threshold must be >= 0");
}

Prediction
ConfidencePredictor::predict(uint64_t pc) const
{
    const Prediction inner = inner_->predict(pc);
    lastPc_ = pc;
    lastInner_ = inner;
    lastFresh_ = true;
    if (!inner.valid || counter(pc) < config_.threshold)
        return Prediction::none();
    return inner;
}

void
ConfidencePredictor::update(uint64_t pc, uint64_t actual)
{
    // Grade the *inner* prediction, not the gated one: the counter
    // tracks how trustworthy the table currently is at this PC, which
    // is exactly the quantity the gate thresholds. Grading the gated
    // prediction instead would freeze the counter below threshold.
    // The predict-then-update protocol just computed it; fall back to
    // a fresh lookup only when update() is called on its own.
    const Prediction inner = lastFresh_ && lastPc_ == pc
                                     ? lastInner_
                                     : inner_->predict(pc);
    lastFresh_ = false;
    const bool hit = inner.valid && inner.value == actual;

    int &count = counters_[pc];
    // An inner prediction the gate suppressed: the coverage the
    // machine paid for caution. Judged on the pre-update counter,
    // exactly what predict() gated on.
    gatedDeclines_ += inner.valid && count < config_.threshold;
    if (hit) {
        if (count < config_.maxCount())
            ++count;
    } else if (config_.penalty == ConfidencePenalty::Reset) {
        count = 0;
    } else if (count > 0) {
        --count;
    }

    inner_->update(pc, actual);
}

std::span<const SharedPredictor>
ConfidencePredictor::components() const
{
    return {&inner_, 1};
}

void
ConfidencePredictor::combineBatch(const uint64_t *pcs, size_t n,
                                  const OutcomeRows *rows,
                                  uint64_t *valid, uint64_t *correct)
{
    const uint64_t *inner_valid = rows[0].valid;
    const uint64_t *inner_correct = rows[0].correct;
    // The inner state moved on under the batch: the scalar path's
    // cached lookup is stale.
    lastFresh_ = false;

    for (size_t i = 0; i < n; ++i) {
        const bool hit = bits::test(inner_correct, i);
        int &count = counters_[pcs[i]];
        gatedDeclines_ += bits::test(inner_valid, i) &&
                          count < config_.threshold;

        // Gate on the counter as it stood before this event, exactly
        // like the scalar predict()-then-update() pair.
        if (bits::test(inner_valid, i) && count >= config_.threshold) {
            bits::set(valid, i);
            if (hit)
                bits::set(correct, i);
        }

        if (hit) {
            if (count < config_.maxCount())
                ++count;
        } else if (config_.penalty == ConfidencePenalty::Reset) {
            count = 0;
        } else if (count > 0) {
            --count;
        }
    }
}

std::string
ConfidencePredictor::name() const
{
    return inner_->name() + confidenceSuffix(config_);
}

void
ConfidencePredictor::reset()
{
    counters_.clear();
    lastFresh_ = false;
    gatedDeclines_ = 0;
    inner_->reset();
}

size_t
ConfidencePredictor::tableEntries() const
{
    return inner_->tableEntries() + counters_.size();
}

int
ConfidencePredictor::counter(uint64_t pc) const
{
    const auto it = counters_.find(pc);
    return it == counters_.end() ? 0 : it->second;
}

void
ConfidencePredictor::collectCounters(CounterSink &sink) const
{
    sink.counter("confidence.gated_declines", gatedDeclines_);
    sink.gauge("confidence.counters", counters_.size());
    inner_->collectCounters(sink);
}

} // namespace vp::core
