/**
 * @file
 * Runtime contract checking: SIEVE_CHECK / SIEVE_DCHECK /
 * SIEVE_UNREACHABLE.
 *
 * The sieve structures depend on bookkeeping invariants (windowed-
 * counter monotonicity, IMCT aliasing bounds, cache-occupancy
 * accounting) that silent corruption would turn into quietly-wrong
 * simulation results rather than crashes. These macros make the
 * contracts explicit and fail loudly:
 *
 *  - SIEVE_CHECK(cond, ...)   always compiled in; use for cheap
 *    preconditions and the checkInvariants() audit methods.
 *  - SIEVE_DCHECK(cond, ...)  compiled in debug and sanitizer builds
 *    (no NDEBUG, or SIEVE_ENABLE_DCHECKS defined); use on hot paths.
 *  - SIEVE_UNREACHABLE(...)   marks control flow that must never be
 *    reached.
 *
 * All three accept an optional printf-style message after the
 * condition. Failures print "file:line: MACRO failed: <expr> — <msg>"
 * to stderr and abort(), which keeps them usable from gtest death
 * tests. Raw assert() is banned by scripts/lint.sh in favor of these.
 */

#ifndef SIEVESTORE_UTIL_CHECK_HPP
#define SIEVESTORE_UTIL_CHECK_HPP

/*
 * Static hot-path claims (read by scripts/sieve_analyze.py):
 *
 *  - SIEVE_NOALLOC marks a function as a no-alloc root: the analyzer
 *    proves that every function transitively reachable from it is
 *    allocation-free. Functions whose bodies arm SIEVE_ASSERT_NO_ALLOC
 *    (util/alloc_guard.hpp) are roots implicitly; use the annotation
 *    for hot functions that are *called from* guarded regions and must
 *    stay clean on their own (FlatIndex probes, the SPSC hand-off).
 *  - SIEVE_MAY_ALLOC marks a deliberate escape hatch: a function that
 *    is reachable from a no-alloc root yet legitimately allocates —
 *    amortized growth that runs before the region arms (pre-reserved
 *    tables), or cold failure paths that disarm the runtime guard.
 *    The analyzer stops traversal there and lists every such boundary
 *    in its report, so each one is a reviewed, named exemption rather
 *    than a silent hole. Every use must carry a comment saying why the
 *    allocation cannot fire inside an armed region (or why the region
 *    is disarmed around it).
 *
 * Under Clang the annotations are also attached to the AST (annotate
 * attributes), so the libclang backend of sieve-analyze sees them
 * without re-lexing; under GCC they compile to nothing.
 */
#if defined(__clang__)
#define SIEVE_NOALLOC __attribute__((annotate("sieve-noalloc")))
#define SIEVE_MAY_ALLOC __attribute__((annotate("sieve-may-alloc")))
#else
#define SIEVE_NOALLOC
#define SIEVE_MAY_ALLOC
#endif

namespace sievestore {
namespace util {

/**
 * Report a failed contract and abort. Never returns. `msg_fmt` may be
 * null (no user message).
 */
[[noreturn]] void checkFailed(const char *file, int line,
                              const char *macro_name, const char *expr,
                              const char *msg_fmt = nullptr, ...)
    __attribute__((format(printf, 5, 6)));

} // namespace util
} // namespace sievestore

/** Always-on contract check with an optional printf-style message. */
#define SIEVE_CHECK(cond, ...)                                            \
    do {                                                                  \
        if (__builtin_expect(!(cond), 0)) {                               \
            ::sievestore::util::checkFailed(__FILE__, __LINE__,           \
                                            "SIEVE_CHECK",                \
                                            #cond __VA_OPT__(, )          \
                                                __VA_ARGS__);             \
        }                                                                 \
    } while (false)

/** Mark control flow that must never execute. */
#define SIEVE_UNREACHABLE(...)                                            \
    ::sievestore::util::checkFailed(__FILE__, __LINE__,                   \
                                    "SIEVE_UNREACHABLE",                  \
                                    "reached" __VA_OPT__(, ) __VA_ARGS__)

/**
 * Debug-only contract check: active when NDEBUG is not defined (Debug
 * builds) or when SIEVE_ENABLE_DCHECKS is defined (the sanitizer
 * presets force it on regardless of build type). Compiles to nothing —
 * the condition is not evaluated — otherwise.
 */
#if defined(SIEVE_ENABLE_DCHECKS) || !defined(NDEBUG)
#define SIEVE_DCHECKS_ENABLED 1
#define SIEVE_DCHECK(cond, ...) SIEVE_CHECK(cond __VA_OPT__(, ) __VA_ARGS__)
#else
#define SIEVE_DCHECKS_ENABLED 0
#define SIEVE_DCHECK(cond, ...)                                           \
    do {                                                                  \
        (void)sizeof(!(cond));                                            \
    } while (false)
#endif

#endif // SIEVESTORE_UTIL_CHECK_HPP
