/**
 * @file
 * Huge-page-backed, zero-filled allocator for the large flat table
 * arrays.
 *
 * The bounded tables back megabytes of hot, randomly-probed state
 * with plain vectors. On 4 KiB pages such a table costs a TLB miss on
 * nearly every probe, and — worse for the batched replay path — a
 * software prefetch whose target misses the TLB is silently dropped
 * by the hardware, so the prefetch pipeline never hides the misses it
 * was built to hide. Backing the arrays with 2 MiB huge pages shrinks
 * a tens-of-MB table to a handful of TLB entries, making both the
 * demand loads and the prefetches reliable.
 *
 * Huge pages are a hint-only facility with a three-step ladder for
 * allocations of at least one huge page: an explicit hugetlb mapping
 * when the administrator has reserved a pool (vm.nr_hugepages — the
 * only mechanism that works on kernels where transparent huge pages
 * are configured but never granted, as in some microVMs), else
 * anonymous memory with MADV_HUGEPAGE, else plain pages. Every rung
 * has identical observable behaviour.
 *
 * Zero is empty. Every rung hands out zero-filled storage: calloc()
 * below 2 MiB, hugetlb and anonymous mmap (zero by the kernel's
 * contract) at and above it, and a memset() of the aligned_alloc()
 * block where mmap is unavailable. An element type whose
 * value-initialised state is all-zero bytes opts into
 * ZeroInitialised, and the allocator's no-argument construct() then
 * leaves the zeroed bytes as they are instead of writing T() over
 * them. A vector of such elements resize()d from empty therefore
 * writes nothing: a 1M-entry table costs no page until an event
 * touches its set, and freeing it unmaps pages that were never
 * faulted in. A bounded table stores its payloads way-major
 * (core/bounded_table.hh), so a sparsely filled one faults in only
 * the payload pages of its low ways, and its destructor destroys only
 * the payloads of live slots. Building the confidence and aliasing
 * study banks (1M-entry tables) went from 1089 MB resident in 641 ms
 * to 12 MB in 12 ms (4 vCPU Xeon).
 *
 * The opt-in is restricted to integral types and to aggregates, whose
 * lifetime may begin without a constructor call (implicit-lifetime
 * types). construct() trusts that the storage is fresh from
 * allocate(): a container must not shrink and then regrow into the
 * same capacity, which the bounded tables (sized once at
 * construction) never do.
 *
 * MADV_HUGEPAGE stays on although it makes the first touch of a
 * 2 MiB region fault in the whole region. Measured on the same host,
 * zeroed storage in place, 3 alternating runs each: dropping the hint
 * cut the seven-sweep studies dry-run's peak RSS from 1.8–2.0 GB to
 * 1.4 GB but raised its wall time from 7.1–8.2 s to 12.5–13.6 s and
 * its system time from 3.8–4.0 s to 14.8–16.9 s, because 512
 * separate 4 KiB first-touch faults cost more than one huge one. On
 * full-scale traces (one run each) it also slowed 1M-entry replay:
 * l 37 -> 59, s2 41 -> 67 and fcm3 510 -> 1503 ns/event.
 */

#ifndef VP_CORE_HUGEPAGE_HH
#define VP_CORE_HUGEPAGE_HH

#include <cstddef>
#include <cstdlib>
#include <new>
#include <type_traits>

#if defined(__linux__)
#include <sys/mman.h>
#else
#include <cstring>
#endif

namespace vp::core {

/**
 * Opt-in: a value-initialised T is all-zero bytes, so zeroed storage
 * from HugePageAllocator already holds one. True for the integral
 * types; a class opts in with a `static constexpr bool
 * zeroInitialised = true;` member and must be an aggregate.
 */
template <typename T>
struct ZeroInitialised : std::is_integral<T>
{
};

template <typename T>
    requires(T::zeroInitialised)
struct ZeroInitialised<T> : std::true_type
{
    static_assert(std::is_aggregate_v<T>,
                  "only implicit-lifetime aggregates may skip their "
                  "constructor");
};

/**
 * Names opted-in entry types that are private to their predictor,
 * for the zero-is-empty contract test (tests/zero_storage_test.cc);
 * defined only there.
 */
struct ZeroStorageAccess;

/**
 * Minimal std::allocator replacement that returns zeroed storage and
 * requests huge pages for allocations of at least one huge page. All
 * instances compare equal (the allocator is stateless), so vectors
 * using it can be swapped/moved freely.
 */
template <typename T>
struct HugePageAllocator
{
    using value_type = T;

    static constexpr std::size_t hugePage = 2u << 20;

    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "calloc() alignment is too small for T");

    HugePageAllocator() = default;

    template <typename U>
    HugePageAllocator(const HugePageAllocator<U> &)
    {
    }

    T *
    allocate(std::size_t n)
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < hugePage) {
            if (void *p = std::calloc(n, sizeof(T)))
                return static_cast<T *>(p);
            throw std::bad_alloc();
        }
        const std::size_t rounded =
                (bytes + hugePage - 1) & ~(hugePage - 1);
#if defined(__linux__)
        // Preallocated huge pages first (vm.nr_hugepages pool; the
        // mmap fails upfront when the pool is too small), then
        // transparent huge pages as a hint, then plain pages. Both
        // mappings are anonymous, hence zero-filled.
        void *p = mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                       MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
        if (p == MAP_FAILED) {
            p = mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (p == MAP_FAILED)
                throw std::bad_alloc();
            madvise(p, rounded, MADV_HUGEPAGE);
        }
        return static_cast<T *>(p);
#else
        if (void *p = std::aligned_alloc(hugePage, rounded))
            return static_cast<T *>(std::memset(p, 0, rounded));
        throw std::bad_alloc();
#endif
    }

    void
    deallocate(T *p, std::size_t n) noexcept
    {
        const std::size_t bytes = n * sizeof(T);
        if (bytes < hugePage) {
            std::free(p);
            return;
        }
        const std::size_t rounded =
                (bytes + hugePage - 1) & ~(hugePage - 1);
#if defined(__linux__)
        munmap(p, rounded);
#else
        (void)rounded;
        std::free(p);
#endif
    }

    /** Value-initialise *p, which zeroed storage from allocate()
     *  already is for a ZeroInitialised type (see the file comment).
     *  Constructions with arguments take std::allocator_traits'
     *  default, placement new. */
    template <typename U>
    void
    construct(U *p)
    {
        if constexpr (!ZeroInitialised<U>::value)
            ::new (static_cast<void *>(p)) U();
    }
};

template <typename T, typename U>
bool
operator==(const HugePageAllocator<T> &, const HugePageAllocator<U> &)
{
    return true;
}

template <typename T, typename U>
bool
operator!=(const HugePageAllocator<T> &, const HugePageAllocator<U> &)
{
    return false;
}

} // namespace vp::core

#endif // VP_CORE_HUGEPAGE_HH
