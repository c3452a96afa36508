/**
 * @file
 * Process-wide lock-order registry, asserted in debug builds.
 *
 * Deadlock freedom in Copernicus rests on one global rule: locks are
 * acquired in strictly increasing rank order, and no two locks of the
 * same rank nest. The registry below is the single authoritative list
 * of every ranked mutex in the system; common/mutex.hh's Mutex takes a
 * rank at construction and, in debug builds (COPERNICUS_DEBUG_CHECKS
 * or !NDEBUG), every acquisition pushes the rank onto a thread-local
 * stack and panics when the order is violated — turning a latent
 * deadlock into a deterministic test failure.
 *
 * The static analyzer's thread-safety pass (analysis/) checks the
 * registry itself: names unique, ranks unique and positive, so the
 * hierarchy stays a strict total order by construction.
 *
 * Rank 0 is "unranked": the mutex opted out of order checking (used
 * for leaf locks that provably never nest, e.g. the logger's line
 * mutex which is below everything).
 */

#ifndef COPERNICUS_COMMON_LOCK_ORDER_HH
#define COPERNICUS_COMMON_LOCK_ORDER_HH

#include <string>
#include <vector>

namespace copernicus {

/** One entry of the lock hierarchy. */
struct LockLevel
{
    /** Dotted lock name: "serve.admit", "study.cache", ... */
    std::string name;

    /**
     * Acquisition rank; a thread holding rank r may only acquire
     * ranks strictly greater than r. Positive; unique per entry.
     */
    int rank = 0;
};

namespace lock_rank {

// The hierarchy, lowest first: a lower-ranked lock is *acquired
// first* (outermost). Gaps leave room for future levels.
inline constexpr int serveLoop = 10;     ///< event-loop wake queue
inline constexpr int serveTx = 14;       ///< per-connection tx buffer
inline constexpr int serveStreams = 16;  ///< per-connection streams
inline constexpr int serveAdmit = 20;    ///< admission state
inline constexpr int serveMemo = 25;     ///< advise/plan result memo
inline constexpr int serveInflight = 30; ///< --top in-flight registry
inline constexpr int serveSpans = 40;    ///< request-span log
inline constexpr int studyCache = 50;    ///< partitioning memo slots
inline constexpr int sweepJournal = 55;  ///< checkpoint journal append
inline constexpr int statDistribution = 70; ///< DistributionStat bins
inline constexpr int spanCollector = 80;    ///< span ring
inline constexpr int flightRecorder = 90;   ///< wide-event ring
inline constexpr int profileRegistry = 100; ///< host profiler table

} // namespace lock_rank

/** Every ranked lock in the process, the analyzer's input. */
const std::vector<LockLevel> &lockOrderRegistry();

/**
 * Debug hook called by Mutex on acquisition: panics when @p rank is
 * positive and the calling thread already holds an equal or greater
 * rank. Compiled to nothing in release builds without
 * COPERNICUS_DEBUG_CHECKS.
 */
void noteLockAcquired(int rank);

/** Debug hook called by Mutex on release. */
void noteLockReleased(int rank);

/** The calling thread's greatest held rank (0 when none); tests. */
int currentMaxHeldRank();

} // namespace copernicus

#endif // COPERNICUS_COMMON_LOCK_ORDER_HH
