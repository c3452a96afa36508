#include "common/lock_order.hh"

#include <algorithm>
#include <cstddef>

#include "common/status.hh"

namespace copernicus {

const std::vector<LockLevel> &
lockOrderRegistry()
{
    static const std::vector<LockLevel> registry = {
        {"serve.loop", lock_rank::serveLoop},
        {"serve.tx", lock_rank::serveTx},
        {"serve.streams", lock_rank::serveStreams},
        {"serve.admit", lock_rank::serveAdmit},
        {"serve.memo", lock_rank::serveMemo},
        {"serve.inflight", lock_rank::serveInflight},
        {"serve.spans", lock_rank::serveSpans},
        {"store.sweep_journal", lock_rank::sweepJournal},
        {"stat.distribution", lock_rank::statDistribution},
        {"trace.span_collector", lock_rank::spanCollector},
        {"trace.flight_recorder", lock_rank::flightRecorder},
    };
    return registry;
}

namespace {

#if !defined(NDEBUG) || defined(COPERNICUS_DEBUG_CHECKS)
constexpr bool orderChecks = true;
#else
constexpr bool orderChecks = false;
#endif

/**
 * Ranks held by the calling thread, acquisition order. Trivially
 * destructible on purpose: the main thread's thread_local destructors
 * run before exit-time handlers, and those still take ranked locks (a
 * bench's atexit artifact writer reads the span collector). The ranks
 * held at once are distinct, so the registry's eleven bound the depth.
 */
constexpr std::size_t maxHeld = 16;
thread_local int heldRanks[maxHeld];
thread_local std::size_t heldCount = 0;

} // namespace

void
noteLockAcquired(int rank)
{
    if (!orderChecks || rank <= 0)
        return;
    const int held = currentMaxHeldRank();
    COPERNICUS_PANIC_IF(
        held >= rank,
        "lock-order violation: acquiring rank " +
            std::to_string(rank) + " while holding rank " +
            std::to_string(held) +
            " (locks must be taken in strictly increasing rank "
            "order; see common/lock_order.hh)");
    COPERNICUS_PANIC_IF(heldCount == maxHeld,
                        "lock-order tracking: more than " +
                            std::to_string(maxHeld) +
                            " ranked locks held at once");
    heldRanks[heldCount++] = rank;
}

void
noteLockReleased(int rank)
{
    if (!orderChecks || rank <= 0)
        return;
    int *const end = heldRanks + heldCount;
    int *const at = std::find(heldRanks, end, rank);
    if (at != end) {
        std::copy(at + 1, end, at);
        --heldCount;
    }
}

int
currentMaxHeldRank()
{
    if (!orderChecks || heldCount == 0)
        return 0;
    return *std::max_element(heldRanks, heldRanks + heldCount);
}

} // namespace copernicus
