#include "exp/confidence.hh"

#include "exp/experiment.hh"

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
ConfidenceSweep::specIndex(size_t family_index, size_t point_index)
{
    const size_t stride = 1 + confidenceSweepPoints().size();
    return family_index * stride + 1 + point_index;
}

size_t
ConfidenceSweep::ungatedIndex(size_t family_index)
{
    const size_t stride = 1 + confidenceSweepPoints().size();
    return family_index * stride;
}

SuiteOptions
confidenceSweepOptions(SuiteOptions base_options)
{
    base_options.predictors = confidenceSweepSpecs();
    base_options.overlap = 0;
    base_options.improvementA = base_options.improvementB = 0;
    base_options.values = false;
    return base_options;
}

ConfidenceSweep
runConfidenceSweep(const SuiteOptions &base_options)
{
    // One cell per workload on the shared worker pool.
    ExperimentConfig config;
    config.traceCacheDir = base_options.traceCacheDir;
    CellScheduler scheduler(config);
    ConfidenceSweep sweep;
    sweep.runs = scheduler.suite(confidenceSweepOptions(base_options));
    return sweep;
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
