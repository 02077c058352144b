#include "core/predictor.hh"

#include <stdexcept>

namespace vp::core {

void
ValuePredictor::evalBatch(const uint64_t *pcs, const uint64_t *values,
                          size_t n, uint64_t *valid, uint64_t *correct)
{
    for (size_t i = 0; i < n; ++i) {
        const Prediction pred = predict(pcs[i]);
        if (pred.valid) {
            bits::set(valid, i);
            if (pred.value == values[i])
                bits::set(correct, i);
        }
        update(pcs[i], values[i]);
    }
}

std::span<const SharedPredictor>
ValuePredictor::components() const
{
    return {};
}

void
ValuePredictor::combineBatch(const uint64_t *, size_t, const OutcomeRows *,
                             uint64_t *, uint64_t *)
{
    throw std::logic_error(name() + " has no components to combine");
}

void
ValuePredictor::collectCounters(CounterSink &sink) const
{
    // Unbounded reference predictors: nothing finite to report.
    (void)sink;
}

} // namespace vp::core
