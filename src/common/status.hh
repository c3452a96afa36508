/**
 * @file
 * Error-reporting helpers in the spirit of gem5's fatal()/panic() split.
 *
 * fatal() reports a condition caused by the caller (bad configuration,
 * malformed input file); panic() reports an internal invariant violation,
 * i.e. a Copernicus bug. Both throw typed exceptions so that library users
 * and tests can catch them; nothing in the library calls std::abort().
 *
 * There is one way to check a condition: COPERNICUS_FATAL_IF(cond, msg)
 * and COPERNICUS_PANIC_IF(cond, msg), plus COPERNICUS_DCHECK for
 * debug-only invariants. They are macros so that the message is built
 * only when the check fails. A function taking the message as a
 * `const std::string &` builds it on every call, and checks sit in
 * per-entry loops (the MatrixMarket parser, TripletMatrix::add,
 * CbmWriter::append), where concatenating a message that is almost never
 * read cost several heap allocations per entry.
 */

#ifndef COPERNICUS_COMMON_STATUS_HH
#define COPERNICUS_COMMON_STATUS_HH

#include <stdexcept>
#include <string>

namespace copernicus {

/** Base class for all Copernicus exceptions. */
class Error : public std::runtime_error
{
  public:
    explicit Error(const std::string &what_arg)
        : std::runtime_error(what_arg)
    {}
};

/** Thrown by fatal(): the user supplied an invalid request or input. */
class FatalError : public Error
{
  public:
    explicit FatalError(const std::string &what_arg) : Error(what_arg) {}
};

/** Thrown by panic(): an internal invariant was violated. */
class PanicError : public Error
{
  public:
    explicit PanicError(const std::string &what_arg) : Error(what_arg) {}
};

/**
 * Thrown when a cooperative cancellation hook interrupts a long run
 * (Study::run's cancelCheck, driven by the serve daemon's per-request
 * deadlines). Neither a user mistake nor a bug — the caller asked the
 * work to stop — so it gets its own type that serving layers can map
 * to a deadline_exceeded response.
 */
class CancelledError : public Error
{
  public:
    explicit CancelledError(const std::string &what_arg)
        : Error(what_arg)
    {}
};

/**
 * Report a user-caused error.
 *
 * @param msg Human-readable description of what the user got wrong.
 */
[[noreturn]] void fatal(const std::string &msg);

/**
 * Report an internal invariant violation.
 *
 * @param msg Human-readable description of the broken invariant.
 */
[[noreturn]] void panic(const std::string &msg);

} // namespace copernicus

/**
 * Throw FatalError with the message built from the remaining arguments
 * when @p cond holds. The message is evaluated only then: a passing
 * check costs one predicted branch, whatever its message concatenates.
 * The arguments must convert to the `const std::string &` fatal()
 * takes. An expression, so it also works inside a conditional or a
 * comma expression.
 */
#define COPERNICUS_FATAL_IF(cond, ...)                                  \
    (__builtin_expect(static_cast<bool>(cond), false)                  \
         ? ::copernicus::fatal(__VA_ARGS__)                             \
         : static_cast<void>(0))

/** COPERNICUS_FATAL_IF's counterpart for invariant violations. */
#define COPERNICUS_PANIC_IF(cond, ...)                                  \
    (__builtin_expect(static_cast<bool>(cond), false)                  \
         ? ::copernicus::panic(__VA_ARGS__)                             \
         : static_cast<void>(0))

/**
 * Debug-only invariant check for per-element hot loops (tile cell
 * access, codec inner loops). Expands to COPERNICUS_PANIC_IF(!(cond),
 * ...) in debug builds and to nothing under NDEBUG, so release sweeps
 * pay no per-element branch while sanitizer/debug CI keeps the full
 * checks.
 */
#if defined(NDEBUG) && !defined(COPERNICUS_DEBUG_CHECKS)
#define COPERNICUS_DCHECK(cond, ...) ((void)0)
#else
#define COPERNICUS_DCHECK(cond, ...)                                    \
    COPERNICUS_PANIC_IF(!(cond), __VA_ARGS__)
#endif

#endif // COPERNICUS_COMMON_STATUS_HH
