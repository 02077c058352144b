/**
 * @file
 * Clang Thread Safety Analysis annotation macros.
 *
 * The repo's concurrency invariants — "every BoundedTable touch, even
 * a const PREDICT peek, happens under the stripe lock", "vpd's
 * connection list is only touched under connMutex_" — used to live
 * in header comments and a TSan CI
 * configuration that can only see the interleavings a run happens to
 * take. These macros move them into the compiler: under Clang,
 * `-Wthread-safety` (the `-DVP_THREAD_SAFETY=ON` CMake configuration
 * turns it on with -Werror) proves at compile time that every access
 * to a VP_GUARDED_BY member happens while its capability is held, on
 * every path, taken or not.
 *
 * Conventions (enforced by tools/vplint and the annotated CI build):
 *
 *  - Mutex-protected members carry VP_GUARDED_BY(mutex_) at the
 *    declaration; the mutex itself is a vp::util::Mutex
 *    (util/mutex.hh), never a naked std::mutex.
 *  - Functions that expect the caller to hold a lock carry
 *    VP_REQUIRES(mutex_); functions that lock on the caller's behalf
 *    carry VP_ACQUIRE/VP_RELEASE.
 *  - Thread-owned state (a single-owner obs::Registry, fed and
 *    snapshot by one cell's task) is deliberately unannotated, with a
 *    comment naming the owning thread — absence of an annotation plus
 *    a confinement comment is the convention for "no lock by design".
 *
 * Off Clang every macro expands to nothing, so gcc builds (and the
 * generated code everywhere) are byte-for-byte unaffected: the
 * analysis is purely static and zero-cost at runtime.
 *
 * Reference: "Thread Safety Analysis" (clang documentation); the
 * macro set mirrors the capability vocabulary popularized by abseil's
 * thread_annotations.h, under a VP_ prefix.
 */

#ifndef VP_UTIL_THREAD_ANNOTATIONS_HH
#define VP_UTIL_THREAD_ANNOTATIONS_HH

#if defined(__clang__) && !defined(VP_NO_THREAD_SAFETY_ANNOTATIONS)
#define VP_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define VP_THREAD_ANNOTATION(x)
#endif

/** Marks a class as a lockable capability ("mutex", "role", ...). */
#define VP_CAPABILITY(x) VP_THREAD_ANNOTATION(capability(x))

/** Marks an RAII class that acquires in its ctor, releases in its
 *  dtor (vp::util::MutexLock). */
#define VP_SCOPED_CAPABILITY VP_THREAD_ANNOTATION(scoped_lockable)

/** The member may only be touched while holding @p x. */
#define VP_GUARDED_BY(x) VP_THREAD_ANNOTATION(guarded_by(x))

/** The pointee may only be touched while holding @p x. */
#define VP_PT_GUARDED_BY(x) VP_THREAD_ANNOTATION(pt_guarded_by(x))

/** Lock-ordering declarations (deadlock prevention). */
#define VP_ACQUIRED_BEFORE(...) \
    VP_THREAD_ANNOTATION(acquired_before(__VA_ARGS__))
#define VP_ACQUIRED_AFTER(...) \
    VP_THREAD_ANNOTATION(acquired_after(__VA_ARGS__))

/** The caller must hold the capabilities (exclusive / shared). */
#define VP_REQUIRES(...) \
    VP_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))
#define VP_REQUIRES_SHARED(...) \
    VP_THREAD_ANNOTATION(requires_shared_capability(__VA_ARGS__))

/** The function acquires the capabilities and does not release them. */
#define VP_ACQUIRE(...) \
    VP_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))
#define VP_ACQUIRE_SHARED(...) \
    VP_THREAD_ANNOTATION(acquire_shared_capability(__VA_ARGS__))

/** The function releases capabilities the caller holds. */
#define VP_RELEASE(...) \
    VP_THREAD_ANNOTATION(release_capability(__VA_ARGS__))
#define VP_RELEASE_SHARED(...) \
    VP_THREAD_ANNOTATION(release_shared_capability(__VA_ARGS__))

/** try_lock-style: acquires only when returning @p ret. */
#define VP_TRY_ACQUIRE(...) \
    VP_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** The caller must NOT hold the capabilities (self-deadlock guard). */
#define VP_EXCLUDES(...) VP_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** Runtime assertion that the capability is held (fatal if not). */
#define VP_ASSERT_CAPABILITY(x) \
    VP_THREAD_ANNOTATION(assert_capability(x))

/** The function returns a reference to the capability. */
#define VP_RETURN_CAPABILITY(x) VP_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch: disable the analysis for one function. Every use
 *  must carry a comment justifying why the analysis cannot see the
 *  synchronisation (thread confinement, join-ordering, ...). */
#define VP_NO_THREAD_SAFETY_ANALYSIS \
    VP_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif // VP_UTIL_THREAD_ANNOTATIONS_HH
