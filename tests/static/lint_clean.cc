// vplint fixture: the sanctioned shapes of everything the other
// fixtures violate. `tools/vplint` on this file must exit 0 —
// a false positive here means the linter regressed.

#include <cstdint>
#include <cstddef>
#include <string>
#include <vector>

#include "util/mutex.hh"
#include "vm/trace.hh"

namespace fixture {

struct Inner
{
    virtual ~Inner() = default;
    virtual void evalBatch(const uint64_t *pcs, const uint64_t *values,
                           size_t n, uint64_t *valid,
                           uint64_t *correct) = 0;
};

struct Registry
{
    void add(const std::string &name, uint64_t delta);
};

class Clean
{
  public:
    explicit Clean(Inner *inner) : inner_(inner) {}

    void
    evalBatch(const uint64_t *pcs, const uint64_t *values, size_t n,
              uint64_t *valid, uint64_t *correct)
    {
        // Amortised growth is allowed; dispatch is batch-granular.
        scratch_.resize(n);
        inner_->evalBatch(pcs, values, n, valid, correct);
    }

    void
    emit(Registry &registry)
    {
        // Documented in the README table (exact name + family glob).
        registry.add("replay.events", 1);
        registry.add("net.frames", 1);
    }

    void
    touch()
    {
        const vp::util::MutexLock lock(mutex_);
        ++touches_;
    }

    void
    replay(const std::vector<vp::vm::TraceEvent> &events, size_t span)
    {
        // Spans come from the one constant or from a variable.
        vp::vm::VectorBatchSource whole(events);
        vp::vm::VectorBatchSource named(events, vp::vm::kReplaySpan);
        vp::vm::VectorBatchSource chosen(events, span);
    }

  private:
    Inner *inner_;
    std::vector<uint64_t> scratch_;
    mutable vp::util::Mutex mutex_;
    uint64_t touches_ VP_GUARDED_BY(mutex_) = 0;
};

} // namespace fixture
