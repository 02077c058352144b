#include "core/last_value.hh"

#include <algorithm>

namespace vp::core {

void
lvInitEntry(LvEntry &entry, uint64_t actual, const LvConfig &config)
{
    entry.value = actual;
    entry.counter = config.counterThreshold;
    entry.candidate = actual;
    entry.candidateRun = 1;
}

void
lvTrainEntry(LvEntry &entry, uint64_t actual, const LvConfig &config)
{
    switch (config.policy) {
      case LvPolicy::AlwaysUpdate:
        entry.value = actual;
        break;

      case LvPolicy::SaturatingCounter:
        if (actual == entry.value) {
            entry.counter = std::min(entry.counter + 1, config.counterMax);
        } else {
            entry.counter = std::max(entry.counter - 1, 0);
            if (entry.counter < config.counterThreshold)
                entry.value = actual;
        }
        break;

      case LvPolicy::Consecutive:
        if (actual == entry.value) {
            entry.candidateRun = 0;
        } else if (actual == entry.candidate) {
            if (++entry.candidateRun >= config.consecutiveRequired) {
                entry.value = actual;
                entry.candidateRun = 0;
            }
        } else {
            entry.candidate = actual;
            entry.candidateRun = 1;
        }
        break;
    }
}

const char *
lvPolicyName(LvPolicy policy)
{
    switch (policy) {
      case LvPolicy::AlwaysUpdate: return "l";
      case LvPolicy::SaturatingCounter: return "l-sat";
      case LvPolicy::Consecutive: return "l-consec";
    }
    return "l";
}

LastValuePredictor::LastValuePredictor(LvConfig config) : config_(config)
{
}

Prediction
LastValuePredictor::predict(uint64_t pc) const
{
    auto it = table_.find(pc);
    if (it == table_.end())
        return Prediction::none();
    return Prediction::of(it->second.value);
}

void
LastValuePredictor::update(uint64_t pc, uint64_t actual)
{
    auto [it, inserted] = table_.try_emplace(pc);
    if (inserted)
        lvInitEntry(it->second, actual, config_);
    else
        lvTrainEntry(it->second, actual, config_);
}

void
LastValuePredictor::evalBatch(const uint64_t *pcs,
                              const uint64_t *values, size_t n,
                              uint64_t *valid, uint64_t *correct)
{
    for (size_t i = 0; i < n; ++i) {
        auto [it, inserted] = table_.try_emplace(pcs[i]);
        if (inserted) {
            // Cold entry: the scalar predict() would have declined.
            lvInitEntry(it->second, values[i], config_);
            continue;
        }
        bits::set(valid, i);
        if (it->second.value == values[i])
            bits::set(correct, i);
        lvTrainEntry(it->second, values[i], config_);
    }
}

std::string
LastValuePredictor::name() const
{
    return lvPolicyName(config_.policy);
}

void
LastValuePredictor::reset()
{
    table_.clear();
}

} // namespace vp::core
