/**
 * @file
 * Clang thread-safety annotation macros (no-ops elsewhere).
 *
 * The concurrency-bearing classes (common/mutex.hh wrappers,
 * thread_pool, stat_group, the serve daemon, the observability rings)
 * declare their locking contracts with these macros so
 * `clang++ -Wthread-safety -Werror` can prove statically that every
 * guarded member is only touched with its capability held.
 * The CI `thread-safety` job builds the library tree exactly that way;
 * gcc and non-annotating builds see empty macros and identical code.
 *
 * The macro set mirrors the standard capability vocabulary
 * (https://clang.llvm.org/docs/ThreadSafetyAnalysis.html), prefixed to
 * keep the global namespace clean.
 */

#ifndef COPERNICUS_COMMON_THREAD_ANNOTATIONS_HH
#define COPERNICUS_COMMON_THREAD_ANNOTATIONS_HH

#if defined(__clang__) && (!defined(SWIG))
#define COPERNICUS_THREAD_ANNOTATION(x) __attribute__((x))
#else
#define COPERNICUS_THREAD_ANNOTATION(x) // no-op
#endif

/** Marks a class as a lockable capability ("mutex"). */
#define COPERNICUS_CAPABILITY(x) \
    COPERNICUS_THREAD_ANNOTATION(capability(x))

/** Marks an RAII class that acquires in its ctor, releases in dtor. */
#define COPERNICUS_SCOPED_CAPABILITY \
    COPERNICUS_THREAD_ANNOTATION(scoped_lockable)

/** Member data that may only be touched while holding @p x. */
#define COPERNICUS_GUARDED_BY(x) \
    COPERNICUS_THREAD_ANNOTATION(guarded_by(x))

/** Pointee data that may only be touched while holding @p x. */
#define COPERNICUS_PT_GUARDED_BY(x) \
    COPERNICUS_THREAD_ANNOTATION(pt_guarded_by(x))

/** The function requires the listed capabilities held on entry. */
#define COPERNICUS_REQUIRES(...) \
    COPERNICUS_THREAD_ANNOTATION(requires_capability(__VA_ARGS__))

/** The function must NOT be called with the capabilities held. */
#define COPERNICUS_EXCLUDES(...) \
    COPERNICUS_THREAD_ANNOTATION(locks_excluded(__VA_ARGS__))

/** The function acquires the capability (and does not release it). */
#define COPERNICUS_ACQUIRE(...) \
    COPERNICUS_THREAD_ANNOTATION(acquire_capability(__VA_ARGS__))

/** The function releases the capability. */
#define COPERNICUS_RELEASE(...) \
    COPERNICUS_THREAD_ANNOTATION(release_capability(__VA_ARGS__))

/** try-lock: acquires when returning @p ... (true/false). */
#define COPERNICUS_TRY_ACQUIRE(...) \
    COPERNICUS_THREAD_ANNOTATION(try_acquire_capability(__VA_ARGS__))

/** Returns a reference to the capability guarding this object. */
#define COPERNICUS_RETURN_CAPABILITY(x) \
    COPERNICUS_THREAD_ANNOTATION(lock_returned(x))

/** Escape hatch: the analysis skips this function body entirely. */
#define COPERNICUS_NO_THREAD_SAFETY_ANALYSIS \
    COPERNICUS_THREAD_ANNOTATION(no_thread_safety_analysis)

#endif // COPERNICUS_COMMON_THREAD_ANNOTATIONS_HH
