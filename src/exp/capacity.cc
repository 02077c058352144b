#include "exp/capacity.hh"

namespace vp::exp {

const std::vector<std::string> &
capacityFamilies()
{
    static const std::vector<std::string> families = {"l", "s2", "fcm3"};
    return families;
}

const std::vector<size_t> &
capacitySweepPoints()
{
    // 256 entries (a few KB of state) up to 1M entries, the point
    // where every workload's full-scale working set fits (compress
    // allocates ~460k fcm3 contexts) and the bounded predictors match
    // the unbounded ones to within measurement noise.
    static const std::vector<size_t> points = {
        256, 1024, 4096, 16384, 65536, 262144, 1048576,
    };
    return points;
}

std::string
boundedSpecFor(const std::string &base, size_t entries)
{
    return boundedSpecFor(base, entries, core::Replacement::Lru);
}

std::string
boundedSpecFor(const std::string &base, size_t entries,
               core::Replacement policy)
{
    std::string suffix;
    if (policy == core::Replacement::Random)
        suffix = "r";
    else if (policy == core::Replacement::Fifo)
        suffix = "f";
    if (base.rfind("fcm", 0) == 0) {
        const size_t vht = entries / 4;
        const size_t vpt = entries - vht;
        return base + "@" + std::to_string(vht) + "/" +
               std::to_string(vpt) + "x16" + suffix;
    }
    return base + "@" + std::to_string(entries) + "x16" + suffix;
}

std::vector<std::string>
capacitySweepSpecs()
{
    std::vector<std::string> specs;
    for (const auto &family : capacityFamilies()) {
        specs.push_back(family);
        for (const size_t entries : capacitySweepPoints())
            specs.push_back(boundedSpecFor(family, entries));
    }
    return specs;
}

size_t
capacitySpecIndex(size_t family_index, size_t budget_index)
{
    return capacityUnboundedIndex(family_index) + 1 + budget_index;
}

size_t
capacityUnboundedIndex(size_t family_index)
{
    return family_index * (1 + capacitySweepPoints().size());
}

SuiteOptions
capacitySweepOptions()
{
    SuiteOptions options;
    options.predictors = capacitySweepSpecs();
    return options;
}

} // namespace vp::exp
