// vplint fixture: per-event virtual dispatch through a predictor
// pointer inside a hot-loop body. `tools/vplint` on this file must
// exit nonzero with [hotpath-virtual] violations — the batched
// replay contract says hot bodies dispatch at batch granularity
// (->evalBatch), never per event.

#include <cstdint>
#include <cstddef>

namespace fixture {

struct Inner
{
    virtual ~Inner() = default;
    virtual uint64_t predict(uint64_t pc) = 0;
    virtual void update(uint64_t pc, uint64_t value) = 0;
};

class Wrapper
{
  public:
    explicit Wrapper(Inner *inner) : inner_(inner) {}

    void
    evalBatch(const uint64_t *pcs, const uint64_t *values, size_t n,
              uint64_t *valid, uint64_t *correct)
    {
        (void)valid;
        (void)correct;
        for (size_t i = 0; i < n; ++i) {
            last_ = inner_->predict(pcs[i]);
            inner_->update(pcs[i], values[i]);
        }
    }

  private:
    Inner *inner_;
    uint64_t last_ = 0;
};

} // namespace fixture
