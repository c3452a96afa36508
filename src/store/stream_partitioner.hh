/**
 * @file
 * Bounded-memory streaming partitioner.
 *
 * matrix/partitioner.cc materializes the whole triplet array and all
 * tile buckets at once — fine for the surrogate catalog, hopeless for
 * the 100M+-nnz SuiteSparse drops of Table 1. This generalization
 * makes several passes over a re-scannable TripletSource, each pass
 * covering a contiguous range of tile-row strips whose combined
 * non-zero count fits a configurable budget, and emits exactly the
 * Tiles the in-memory path would: same canonical nonzero streams,
 * same eagerly-installed SparseView/TileStats, byte-identical inputs
 * to all 14 codecs.
 *
 * Memory contract (documented in DESIGN.md §12): one pass buffers at
 * most max(maxBufferedNnz, heaviest single strip) triplets, plus an
 * equal-sized set of scatter buckets and an O(gridRows) strip-count
 * array — so peak transient footprint is ~2 x 12 bytes x that bound,
 * independent of total matrix size. The source is scanned passes + 1
 * times (one counting pass up front).
 */

#ifndef COPERNICUS_STORE_STREAM_PARTITIONER_HH
#define COPERNICUS_STORE_STREAM_PARTITIONER_HH

#include <cstdint>
#include <functional>

#include "matrix/partitioner.hh"
#include "store/triplet_source.hh"

namespace copernicus {

/** Tuning knobs for the streaming passes. */
struct StreamPartitionOptions
{
    /**
     * Triplet budget per pass. A pass covers as many consecutive
     * tile-row strips as fit this budget; a single strip heavier than
     * the budget still becomes one (oversized) pass, since a strip is
     * the emission granularity. Default 4M triplets = 48 MB buffered.
     */
    std::uint64_t maxBufferedNnz = 1ULL << 22;
};

/** Observability for tests and the ingest bench. */
struct StreamPartitionStats
{
    /** Buffered passes run (excludes the counting pass). */
    std::size_t passes = 0;

    /** Source scans performed (passes + 1). */
    std::size_t sourceScans = 0;

    /** Largest per-pass triplet buffer actually held. */
    std::uint64_t peakBufferedNnz = 0;

    /** Non-zero tiles emitted. */
    std::size_t nonZeroTiles = 0;

    /** All-zero tiles elided. */
    std::size_t zeroTiles = 0;
};

/**
 * Stream @p source through the partitioner, handing each non-zero
 * tile to @p consume in (tileRow, tileCol) order and never holding
 * more than one pass's worth of triplets.
 *
 * @param source Canonical triplet stream (re-scanned per pass).
 * @param partitionSize Edge length p of each tile; must be positive.
 * @param options Pass budget knobs.
 * @param consume Called once per non-zero tile, in row-major grid
 *        order; the tile is moved in and can be dropped immediately.
 * @return Pass/tile statistics.
 */
StreamPartitionStats
forEachTileStreaming(const TripletSource &source, Index partitionSize,
                     const StreamPartitionOptions &options,
                     const std::function<void(Tile &&)> &consume);

/**
 * Streaming drop-in for partition(): identical Partitioning (same
 * tiles, same order, same grid bookkeeping), built in bounded-memory
 * passes. The result itself still holds every tile — use
 * forEachTileStreaming() when the consumer can stream too.
 *
 * @param stats Optional out-param receiving the pass statistics.
 */
Partitioning
partitionStreaming(const TripletSource &source, Index partitionSize,
                   const StreamPartitionOptions &options = {},
                   StreamPartitionStats *stats = nullptr);

} // namespace copernicus

#endif // COPERNICUS_STORE_STREAM_PARTITIONER_HH
