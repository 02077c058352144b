/**
 * @file
 * core::CounterSink implemented over an obs::Registry: the bridge
 * the harness uses to pull a predictor bank's internal counters
 * (ValuePredictor::collectCounters) into a cell's registry.
 *
 * Header-only and trivially cheap — collection happens once per cell,
 * never per event, on the thread that owns the registry (the
 * single-owner contract in obs/registry.hh).
 */

#ifndef VP_OBS_REGISTRY_SINK_HH
#define VP_OBS_REGISTRY_SINK_HH

#include "core/predictor.hh"
#include "obs/registry.hh"

namespace vp::obs {

class RegistrySink : public core::CounterSink
{
  public:
    explicit RegistrySink(Registry &registry) : registry_(registry) {}

    void
    counter(const std::string &name, uint64_t value) override
    {
        registry_.add(name, value);
    }

    void
    gauge(const std::string &name, uint64_t value) override
    {
        registry_.gauge(name, value);
    }

    void
    distribution(const std::string &name, uint64_t value,
                 uint64_t count) override
    {
        registry_.record(name, value, count);
    }

  private:
    Registry &registry_;
};

} // namespace vp::obs

#endif // VP_OBS_REGISTRY_SINK_HH
