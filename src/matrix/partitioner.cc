#include "matrix/partitioner.hh"

#include <algorithm>
#include <cstdint>
#include <unordered_map>

#include "common/math.hh"
#include "common/status.hh"

namespace copernicus {

namespace {

/**
 * Tile id of one triplet: row-major position among the tiles of the
 * strips from @p stripBegin on. The arguments are by value so the
 * per-triplet loops below keep them in registers.
 */
inline std::uint64_t
tileIdOf(const Triplet &t, Index partitionSize, Index stripBegin,
         Index gridCols)
{
    return static_cast<std::uint64_t>(t.row / partitionSize -
                                      stripBegin) *
               gridCols +
           t.col / partitionSize;
}

/**
 * Occupied tile ids of @p run in row-major order plus the entry count
 * of each.
 *
 * Counting over a dense per-tile array is the O(nnz + grid) fast path;
 * a hash map plus one sort of the *occupied* ids (O(nnz + t log t))
 * covers grids too large to allocate densely (huge hypersparse
 * matrices at small p).
 */
std::vector<std::pair<std::uint64_t, Index>>
countTileEntries(std::span<const Triplet> run, Index partitionSize,
                 Index stripBegin, Index gridCols, std::uint64_t grid)
{
    std::vector<std::pair<std::uint64_t, Index>> occupied;
    constexpr std::uint64_t denseGridLimit = 1ULL << 24;
    if (grid <= denseGridLimit) {
        std::vector<Index> counts(grid, 0);
        for (const Triplet &t : run)
            ++counts[tileIdOf(t, partitionSize, stripBegin, gridCols)];
        for (std::uint64_t id = 0; id < grid; ++id)
            if (counts[id] != 0)
                occupied.emplace_back(id, counts[id]);
    } else {
        std::unordered_map<std::uint64_t, Index> counts;
        counts.reserve(run.size());
        for (const Triplet &t : run)
            ++counts[tileIdOf(t, partitionSize, stripBegin, gridCols)];
        occupied.assign(counts.begin(), counts.end());
        std::sort(occupied.begin(), occupied.end());
    }
    return occupied;
}

} // namespace

void
scatterTiles(std::span<const Triplet> run, Index partitionSize,
             Index stripBegin, Index stripEnd, Index gridCols,
             const std::function<void(std::size_t)> &bucketed,
             const std::function<void(Tile &&)> &emit)
{
    // Single-pass bucket sort by tile id. The run is canonical, so a
    // stable scatter leaves every bucket sorted row-major in
    // tile-local coordinates, and every bucketed tile holds at least
    // one non-zero value.
    const std::uint64_t grid =
        static_cast<std::uint64_t>(stripEnd - stripBegin) * gridCols;
    const auto occupied = countTileEntries(run, partitionSize,
                                           stripBegin, gridCols, grid);

    std::unordered_map<std::uint64_t, std::size_t> slotOf;
    slotOf.reserve(occupied.size());
    std::vector<std::vector<TileNonzero>> buckets(occupied.size());
    for (std::size_t i = 0; i < occupied.size(); ++i) {
        slotOf.emplace(occupied[i].first, i);
        buckets[i].reserve(occupied[i].second);
    }
    for (const Triplet &t : run) {
        const std::uint64_t id =
            tileIdOf(t, partitionSize, stripBegin, gridCols);
        buckets[slotOf.find(id)->second].push_back(
            {t.row % partitionSize, t.col % partitionSize, t.value});
    }

    bucketed(occupied.size());
    for (std::size_t i = 0; i < occupied.size(); ++i) {
        const std::uint64_t id = occupied[i].first;
        emit(Tile(partitionSize,
                  stripBegin + static_cast<Index>(id / gridCols),
                  static_cast<Index>(id % gridCols),
                  std::move(buckets[i])));
    }
}

Partitioning
partition(const TripletMatrix &matrix, Index partitionSize)
{
    COPERNICUS_FATAL_IF(partitionSize == 0, "partition size must be positive");
    COPERNICUS_PANIC_IF(!matrix.finalized(),
                        "partition() requires a finalized matrix");

    Partitioning result;
    result.partitionSize = partitionSize;
    result.gridRows =
        static_cast<Index>(ceilDiv(matrix.rows(), partitionSize));
    result.gridCols =
        static_cast<Index>(ceilDiv(matrix.cols(), partitionSize));
    // finalize() sorted the triplets row-major and dropped the entries
    // that summed to zero, so the whole matrix is one canonical run.
    scatterTiles(
        matrix.triplets(), partitionSize, 0, result.gridRows,
        result.gridCols,
        [&result](std::size_t tiles) { result.tiles.reserve(tiles); },
        [&result](Tile &&tile) {
            result.tiles.push_back(std::move(tile));
        });
    result.zeroTiles =
        static_cast<std::uint64_t>(result.gridRows) * result.gridCols -
        result.tiles.size();
    return result;
}

} // namespace copernicus
