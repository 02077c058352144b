// vplint fixture: page advice outside src/core/hugepage.hh. `tools/vplint`
// on this file must exit nonzero with [page-advice] violations — which
// arrays ask for huge pages is decided in one place, by the key kind
// core::HugePageAllocator takes.

#include <cstddef>

#include <sys/mman.h>

namespace fixture {

void *
hugeArena(std::size_t bytes)
{
    void *p = mmap(nullptr, bytes, PROT_READ | PROT_WRITE,
                   MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
    if (p == MAP_FAILED)
        return nullptr;
    madvise(p, bytes, MADV_HUGEPAGE);
    return p;
}

} // namespace fixture
