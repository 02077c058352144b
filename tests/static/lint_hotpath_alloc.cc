// vplint fixture: heap allocation inside a hot-loop body.
// `tools/vplint tests/static/lint_hotpath_alloc.cc` must exit
// nonzero with a [hotpath-alloc] violation (wired into ctest with
// WILL_FAIL, label `static`).

#include <cstdint>
#include <cstddef>
#include <memory>

namespace fixture {

struct Node
{
    uint64_t value;
};

class Predictor
{
  public:
    void
    evalBatch(const uint64_t *pcs, const uint64_t *values, size_t n,
              uint64_t *valid, uint64_t *correct)
    {
        (void)valid;
        (void)correct;
        for (size_t i = 0; i < n; ++i) {
            // Per-event allocation: exactly what the rule forbids.
            auto node = std::make_unique<Node>();
            node->value = pcs[i] ^ values[i];
            last_ = node->value;
        }
    }

  private:
    uint64_t last_ = 0;
};

} // namespace fixture
