#include "store/stream_partitioner.hh"

#include <algorithm>
#include <vector>

#include "common/math.hh"
#include "common/status.hh"

namespace copernicus {

StreamPartitionStats
forEachTileStreaming(const TripletSource &source, Index partitionSize,
                     const StreamPartitionOptions &options,
                     const std::function<void(Tile &&)> &consume)
{
    COPERNICUS_FATAL_IF(partitionSize == 0, "partition size must be positive");

    const Index gridRows =
        static_cast<Index>(ceilDiv(source.rows(), partitionSize));
    const Index gridCols =
        static_cast<Index>(ceilDiv(source.cols(), partitionSize));
    const std::uint64_t grid =
        static_cast<std::uint64_t>(gridRows) * gridCols;

    StreamPartitionStats stats;

    // Counting pass: non-zeros per tile-row strip, O(gridRows) state.
    std::vector<std::uint64_t> stripNnz(gridRows, 0);
    std::uint64_t counted = 0;
    source.scan([&](const Triplet &t) {
        ++stripNnz[t.row / partitionSize];
        ++counted;
    });
    stats.sourceScans = 1;
    COPERNICUS_PANIC_IF(counted != source.nnz(),
                        "TripletSource scan count disagrees with its nnz()");

    const std::uint64_t budget =
        std::max<std::uint64_t>(options.maxBufferedNnz, 1);

    Index strip = 0;
    while (strip < gridRows) {
        // Greedy pass plan: consecutive strips while they fit the
        // budget; a single over-budget strip still forms one pass
        // (the strip is the emission granularity).
        Index end = strip;
        std::uint64_t passNnz = 0;
        while (end < gridRows &&
               (end == strip || passNnz + stripNnz[end] <= budget)) {
            passNnz += stripNnz[end];
            ++end;
        }
        if (passNnz == 0) {
            strip = end; // nothing but zero tiles; no scan needed
            continue;
        }

        // Buffer this range's triplets: a contiguous subsequence of
        // the canonical stream, so the buffer is itself the canonical
        // run of strips [strip, end) that the shared scatter takes.
        const std::uint64_t rowLo =
            static_cast<std::uint64_t>(strip) * partitionSize;
        const std::uint64_t rowHi = std::min<std::uint64_t>(
            static_cast<std::uint64_t>(end) * partitionSize,
            source.rows());
        std::vector<Triplet> buffer;
        buffer.reserve(passNnz);
        source.scan([&](const Triplet &t) {
            if (t.row >= rowLo && t.row < rowHi)
                buffer.push_back(t);
        });
        ++stats.sourceScans;
        ++stats.passes;
        COPERNICUS_PANIC_IF(
            buffer.size() != passNnz,
            "streaming pass buffered a different count than the "
            "counting pass predicted");
        stats.peakBufferedNnz =
            std::max<std::uint64_t>(stats.peakBufferedNnz,
                                    buffer.size());

        // Free the buffer once the scatter has bucketed it, before any
        // tile is built, so a pass peaks at the buffer plus its buckets.
        scatterTiles(
            buffer, partitionSize, strip, end, gridCols,
            [&](std::size_t tiles) {
                stats.nonZeroTiles += tiles;
                buffer.clear();
                buffer.shrink_to_fit();
            },
            consume);
        strip = end;
    }

    stats.zeroTiles =
        static_cast<std::size_t>(grid - stats.nonZeroTiles);
    return stats;
}

} // namespace copernicus
