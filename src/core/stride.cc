#include "core/stride.hh"

#include <algorithm>

namespace vp::core {

void
strideInitEntry(StrideEntry &entry, uint64_t actual,
                const StrideConfig &config)
{
    entry.last = actual;
    entry.counter = config.counterThreshold;
}

void
strideTrainEntry(StrideEntry &entry, uint64_t actual,
                 const StrideConfig &config)
{
    const int64_t delta = static_cast<int64_t>(actual - entry.last);

    switch (config.policy) {
      case StridePolicy::Simple:
        entry.s1 = entry.s2 = delta;
        entry.haveDelta = true;
        break;

      case StridePolicy::SaturatingCounter: {
        const bool correct = stridePredictValue(entry) == actual;
        if (correct) {
            entry.counter = std::min(entry.counter + 1, config.counterMax);
        } else {
            entry.counter = std::max(entry.counter - 1, 0);
            if (entry.counter < config.counterThreshold)
                entry.s2 = delta;
        }
        entry.s1 = delta;
        entry.haveDelta = true;
        break;
      }

      case StridePolicy::TwoDelta:
        if (!entry.haveDelta) {
            // First delta initializes both strides.
            entry.s1 = entry.s2 = delta;
            entry.haveDelta = true;
        } else {
            if (delta == entry.s1)
                entry.s2 = delta;
            entry.s1 = delta;
        }
        break;
    }

    entry.last = actual;
}

const char *
stridePolicyName(StridePolicy policy)
{
    switch (policy) {
      case StridePolicy::Simple: return "s";
      case StridePolicy::SaturatingCounter: return "s-sat";
      case StridePolicy::TwoDelta: return "s2";
    }
    return "s2";
}

StridePredictor::StridePredictor(StrideConfig config) : config_(config)
{
}

Prediction
StridePredictor::predict(uint64_t pc) const
{
    auto it = table_.find(pc);
    if (it == table_.end())
        return Prediction::none();
    return Prediction::of(stridePredictValue(it->second));
}

void
StridePredictor::update(uint64_t pc, uint64_t actual)
{
    auto [it, inserted] = table_.try_emplace(pc);
    if (inserted)
        strideInitEntry(it->second, actual, config_);
    else
        strideTrainEntry(it->second, actual, config_);
}

void
StridePredictor::evalBatch(const uint64_t *pcs, const uint64_t *values,
                           size_t n, uint64_t *valid, uint64_t *correct)
{
    for (size_t i = 0; i < n; ++i) {
        auto [it, inserted] = table_.try_emplace(pcs[i]);
        if (inserted) {
            strideInitEntry(it->second, values[i], config_);
            continue;
        }
        bits::set(valid, i);
        if (stridePredictValue(it->second) == values[i])
            bits::set(correct, i);
        strideTrainEntry(it->second, values[i], config_);
    }
}

std::string
StridePredictor::name() const
{
    return stridePolicyName(config_.policy);
}

void
StridePredictor::reset()
{
    table_.clear();
}

} // namespace vp::core
