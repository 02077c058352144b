// vplint fixture: replay spans outside their one home. `tools/vplint`
// on this file must exit nonzero with [replay-span] violations — every
// trace-replay path takes vm::kReplaySpan (src/vm/trace.hh), so the
// span is tuned in one place.

#include <cstddef>
#include <vector>

#include "vm/trace.hh"

namespace fixture {

class LiveSink
{
  private:
    static constexpr std::size_t kBatch = 4096;
};

void
replay(const std::vector<vp::vm::TraceEvent> &events)
{
    vp::vm::VectorBatchSource source(events, 4096);
    (void)source;
}

} // namespace fixture
