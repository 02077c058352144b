// vplint fixture: an experiment file that resolves cells itself.
// `tools/vplint` on this file must exit nonzero with [experiment-cells]
// violations — an experiment declares its cells once, in its grid,
// and its run hook reduces the runs runExperiment resolved.

#include "exp/experiments/modules.hh"

namespace fixture {

using namespace vp::exp;

void
runSneaky(const GridRuns &cells, Report &report)
{
    (void)cells;
    CellScheduler scheduler(ExperimentConfig{});
    SuiteOptions options;
    options.predictors = {"fcm3"};
    const auto runs = runSuite(options);
    report.textf("%zu runs", runs.size());
}

} // namespace fixture
