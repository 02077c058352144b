// vplint fixture: a predictor update() call in the vp::net namespace.
// `tools/vplint` on this file must exit nonzero with [serve-one-path]
// violations — vpd trains only through sim::PredictorBank, so the
// served protocol has one evaluation path.

#include <cstdint>
#include <memory>

#include "core/predictor.hh"

namespace vp::net {

bool
trainOne(core::ValuePredictor &predictor, uint64_t pc, uint64_t value)
{
    const auto pred = predictor.predict(pc);
    predictor.update(pc, value);
    return pred.valid && pred.value == value;
}

void
trainShared(const std::shared_ptr<core::ValuePredictor> &predictor,
            uint64_t pc, uint64_t value)
{
    predictor->update(pc, value);
}

} // namespace vp::net
