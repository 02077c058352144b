#include "exp/confidence.hh"

namespace vp::exp {

const std::vector<std::string> &
confidenceFamilies()
{
    static const std::vector<std::string> families = {
        "l", "s2", "fcm1", "fcm2", "fcm3", "hybrid",
    };
    return families;
}

const std::vector<ConfidencePoint> &
confidenceSweepPoints()
{
    // Width-major, thresholds ascending: within one width the gate
    // only tightens, which is the monotone coverage/accuracy walk the
    // report shows and the tests assert. Width 3 is where the grid
    // stops paying: the threshold-7 points already decline most
    // events on the weaker families.
    static const std::vector<ConfidencePoint> points = [] {
        std::vector<ConfidencePoint> grid;
        for (const int width : {1, 2, 3}) {
            const int max = (1 << width) - 1;
            for (int threshold = 1; threshold <= max; ++threshold)
                grid.push_back({width, threshold});
        }
        return grid;
    }();
    return points;
}

const std::vector<double> &
speculationCosts()
{
    // 1 = a miss forfeits one hit (squash and refetch next cycle);
    // 4 and 8 approximate deeper recovery, where gating starts to
    // dominate raw coverage.
    static const std::vector<double> costs = {1.0, 4.0, 8.0};
    return costs;
}

std::string
confidenceSpecFor(const std::string &base, const ConfidencePoint &point)
{
    return base + ":c" + std::to_string(point.width) + "t" +
           std::to_string(point.threshold);
}

std::vector<std::string>
confidenceSweepSpecs()
{
    std::vector<std::string> specs;
    for (const auto &family : confidenceFamilies()) {
        specs.push_back(family);
        for (const auto &point : confidenceSweepPoints())
            specs.push_back(confidenceSpecFor(family, point));
    }
    return specs;
}

size_t
confidenceSpecIndex(size_t family_index, size_t point_index)
{
    return confidenceUngatedIndex(family_index) + 1 + point_index;
}

size_t
confidenceUngatedIndex(size_t family_index)
{
    return family_index * (1 + confidenceSweepPoints().size());
}

SuiteOptions
confidenceSweepOptions()
{
    SuiteOptions options;
    options.predictors = confidenceSweepSpecs();
    return options;
}

namespace {

template <typename Fn>
double
meanOver(const std::vector<BenchmarkRun> &runs, Fn value)
{
    if (runs.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &run : runs)
        sum += value(run);
    return sum / static_cast<double>(runs.size());
}

} // anonymous namespace

double
meanCoveragePct(const std::vector<BenchmarkRun> &runs, size_t index)
{
    return meanOver(runs, [index](const BenchmarkRun &run) {
        return 100.0 * run.predictors.at(index).second.coverage();
    });
}

double
meanAccuracyWhenPredictedPct(const std::vector<BenchmarkRun> &runs,
                             size_t index)
{
    return meanOver(runs, [index](const BenchmarkRun &run) {
        return 100.0 *
               run.predictors.at(index).second.accuracyWhenPredicted();
    });
}

double
meanProfit(const std::vector<BenchmarkRun> &runs, size_t index,
           double cost)
{
    return meanOver(runs, [index, cost](const BenchmarkRun &run) {
        return run.predictors.at(index).second.profit(cost);
    });
}

} // namespace vp::exp
