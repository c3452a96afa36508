/**
 * @file
 * Server-side memo of plan_formats results.
 *
 * Format ranking is a per-matrix property (Mpakos et al., PAPERS.md),
 * so the answer to "which format for this matrix under this config" is
 * a pure function of (matrix content, sweep configuration). Only
 * plan_formats is memoized: a warm plan skips a per-tile format sweep,
 * while advise is a cheap heuristic and a lookup must first build and
 * content-hash the matrix, which is most of what an advise costs. The serve
 * path already computes a canonical content hash of every triplet
 * matrix (store/container.hh, the PR-5 hash the sweep journal trusts
 * for resume-after-SIGKILL); this memo keys on that hash plus an
 * FNV-1a fingerprint of the request's sweep-relevant parameters and
 * stores the handler's *serialized result JSON verbatim*. A hit
 * therefore returns a payload byte-identical to the miss that
 * populated it — asserted by the parity tests — and costs one hash
 * lookup instead of a format × partition sweep.
 *
 * Eviction is true LRU under a byte budget (payload bytes + a fixed
 * per-entry overhead estimate); a budget of zero disables the memo
 * entirely. Counters (hits/misses/evictions/entries/bytes) surface
 * through the stats endpoint and the Prometheus exposition.
 *
 * Thread safety: all state behind one ranked Mutex (serve.memo). The
 * lock is held only for map/list surgery and a payload copy — never
 * across a sweep — so handler threads contend for nanoseconds.
 */

#ifndef COPERNICUS_SERVE_RESULT_MEMO_HH
#define COPERNICUS_SERVE_RESULT_MEMO_HH

#include <cstdint>
#include <list>
#include <string>
#include <string_view>
#include <unordered_map>

#include "common/lock_order.hh"
#include "common/mutex.hh"
#include "common/thread_annotations.hh"

namespace copernicus {

/** Identity of one memoizable result. */
struct MemoKey
{
    /** Canonical triplet content hash (store/container.hh). */
    std::uint64_t contentHash = 0;

    /** Endpoint + sweep-relevant params fingerprint (FNV-1a). */
    std::uint64_t configHash = 0;

    bool operator==(const MemoKey &other) const
    {
        return contentHash == other.contentHash &&
               configHash == other.configHash;
    }
};

/** Counter snapshot for stats/metrics. */
struct ResultMemoStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t entries = 0;
    std::uint64_t bytes = 0;
};

/** LRU result cache with a byte budget. */
class ResultMemo
{
  public:
    /** @param byteBudget Total payload budget; 0 disables the memo. */
    explicit ResultMemo(std::uint64_t byteBudget);

    bool enabled() const { return budget > 0; }

    /**
     * Copy the stored payload into @p payloadOut on a hit (returns
     * true, promotes the entry to most-recent). A miss is counted.
     * Always a miss when disabled.
     */
    bool lookup(const MemoKey &key, std::string &payloadOut);

    /**
     * Store @p payload under @p key, evicting least-recently-used
     * entries until it fits. A payload larger than the whole budget is
     * not stored. Re-inserting a resident key refreshes its payload.
     */
    void insert(const MemoKey &key, std::string_view payload);

    ResultMemoStats stats() const;

  private:
    struct Entry
    {
        MemoKey key;
        std::string payload;
    };

    struct KeyHash
    {
        std::size_t operator()(const MemoKey &key) const
        {
            // The two halves are already strong 64-bit fingerprints;
            // mixing them keeps (A,B) and (B,A) distinct.
            return static_cast<std::size_t>(
                key.contentHash ^
                (key.configHash * 0x9e3779b97f4a7c15ULL));
        }
    };

    static std::uint64_t entryCost(std::size_t payloadBytes);
    void evictUntilFits(std::uint64_t incomingCost)
        COPERNICUS_REQUIRES(mutex);

    const std::uint64_t budget;

    mutable Mutex mutex{lock_rank::serveMemo};
    std::list<Entry> lru COPERNICUS_GUARDED_BY(mutex); ///< front = MRU
    std::unordered_map<MemoKey, std::list<Entry>::iterator, KeyHash>
        index COPERNICUS_GUARDED_BY(mutex);
    ResultMemoStats counters COPERNICUS_GUARDED_BY(mutex);
};

} // namespace copernicus

#endif // COPERNICUS_SERVE_RESULT_MEMO_HH
