// vplint fixture: heap allocation inside hot-loop bodies, a leaf's
// evalBatch and a composite's combineBatch.
// `tools/vplint tests/static/lint_hotpath_alloc.cc` must exit
// nonzero with a [hotpath-alloc] violation in each (wired into ctest
// with WILL_FAIL, and with a pattern naming combineBatch; label
// `static`).

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

    void
    combineBatch(const uint64_t *pcs, size_t n, const uint64_t *const *rows,
                 uint64_t *valid, uint64_t *correct)
    {
        (void)rows;
        (void)valid;
        (void)correct;
        for (size_t i = 0; i < n; ++i) {
            // Per-event allocation in a composite's loop: forbidden too.
            auto node = std::make_shared<Node>();
            node->value = pcs[i];
            last_ ^= node->value;
        }
    }

  private:
    uint64_t last_ = 0;
};

} // namespace fixture
