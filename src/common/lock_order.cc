#include "common/lock_order.hh"

#include <algorithm>

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

/** Ranks held by the calling thread, acquisition order. */
thread_local std::vector<int> heldRanks;

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
    heldRanks.push_back(rank);
}

void
noteLockReleased(int rank)
{
    if (!orderChecks || rank <= 0)
        return;
    const auto it =
        std::find(heldRanks.rbegin(), heldRanks.rend(), rank);
    if (it != heldRanks.rend())
        heldRanks.erase(std::next(it).base());
}

int
currentMaxHeldRank()
{
    if (!orderChecks || heldRanks.empty())
        return 0;
    return *std::max_element(heldRanks.begin(), heldRanks.end());
}

} // namespace copernicus
