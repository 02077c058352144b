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
 * Huge pages pay only where keys spread over every set, so each
 * table states its key kind (KeyKind) and the allocator takes its
 * page advice from it, for allocations of at least one huge page:
 *
 *  - Hashed keys (the fcm VPT's context hashes) take a three-step
 *    ladder: an explicit hugetlb mapping when the administrator has
 *    reserved a pool (vm.nr_hugepages — the only mechanism that works
 *    on kernels where transparent huge pages are configured but never
 *    granted, as in some microVMs), else anonymous memory with
 *    MADV_HUGEPAGE, else plain pages.
 *  - PC-indexed keys (last value, stride, the fcm VHT, the hybrid
 *    chooser) hold a program's static PCs, which fill a few adjacent
 *    sets: anonymous memory with MADV_NOHUGEPAGE, so that such an
 *    array stays on 4 KiB pages under either host THP mode (always or
 *    madvise) and costs the pages of its used sets only.
 *
 * Every rung has identical observable behaviour.
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
 * Why huge pages only for hashed keys. MADV_HUGEPAGE makes the first
 * touch of a 2 MiB region fault in, and zero, the whole region. A
 * hashed-key table touches nearly every region, so there one huge
 * fault beats 512 small ones and their TLB misses: dropping the hint
 * for every table, the VPT included, once raised the seven-sweep
 * studies dry-run's wall time from 7.1-8.2 s to 12.5-13.6 s and slowed
 * 1M-entry fcm3 replay from 510 to 1503 ns/event. A PC-indexed table
 * touches only the few sets of a program's static PCs, so a huge page
 * there buys no TLB reach and makes 2 MiB resident per touched array:
 * 64 PCs replayed through l@1048576x16 made 4.2 MB resident on huge
 * pages and 40 KB on 4 KiB pages. Moving the PC-indexed arrays to
 * 4 KiB pages (4 vCPU Xeon, 10 alternating pairs) cut the studies
 * dry-run's peak RSS from 829 to 564 MB (10/10) with its wall time
 * unchanged (2.91 -> 2.78 s, unresolved), and in 5 traced pairs each
 * of studies and batched serving cut 1M-entry l and s2 replay from
 * 38-43 to 23-26 ns/event, which no longer faults in a huge page per
 * touched array.
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

/** How a table's keys spread over its sets, which decides the page
 *  advice of its large arrays (see the file comment). */
enum class KeyKind {
    PcIndexed,      ///< static PCs: a few adjacent sets; 4 KiB pages
    Hashed,         ///< context hashes: every set; huge pages
};

/**
 * Minimal std::allocator replacement that returns zeroed storage and,
 * for allocations of at least one huge page, advises the pages @p Keys
 * calls for. All instances compare equal (the allocator is
 * stateless), so vectors using it can be swapped/moved freely.
 */
template <typename T, KeyKind Keys>
struct HugePageAllocator
{
    using value_type = T;

    static constexpr std::size_t hugePage = 2u << 20;

    static_assert(alignof(T) <= alignof(std::max_align_t),
                  "calloc() alignment is too small for T");

    template <typename U>
    struct rebind
    {
        using other = HugePageAllocator<U, Keys>;
    };

    HugePageAllocator() = default;

    template <typename U>
    HugePageAllocator(const HugePageAllocator<U, Keys> &)
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
        // Hashed keys: preallocated huge pages first (vm.nr_hugepages
        // pool; the mmap fails upfront when the pool is too small),
        // then transparent huge pages as a hint, then plain pages.
        // PC-indexed keys: plain pages, never huge. Both mappings are
        // anonymous, hence zero-filled.
        void *p = MAP_FAILED;
        if constexpr (Keys == KeyKind::Hashed) {
            p = mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS | MAP_HUGETLB, -1, 0);
        }
        if (p == MAP_FAILED) {
            p = mmap(nullptr, rounded, PROT_READ | PROT_WRITE,
                     MAP_PRIVATE | MAP_ANONYMOUS, -1, 0);
            if (p == MAP_FAILED)
                throw std::bad_alloc();
            madvise(p, rounded,
                    Keys == KeyKind::Hashed ? MADV_HUGEPAGE
                                            : MADV_NOHUGEPAGE);
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

template <typename T, typename U, KeyKind Keys>
bool
operator==(const HugePageAllocator<T, Keys> &,
           const HugePageAllocator<U, Keys> &)
{
    return true;
}

} // namespace vp::core

#endif // VP_CORE_HUGEPAGE_HH
