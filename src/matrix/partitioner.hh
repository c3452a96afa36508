/**
 * @file
 * Partitioner: split a sparse matrix into p x p tiles, eliding all-zero
 * tiles (Section 4.1: only non-zero partitions are compressed, transferred
 * and processed).
 *
 * One function, scatterTiles(), turns triplets into Tiles. partition()
 * runs it once over a whole in-memory matrix; the streaming partitioner
 * (store/stream_partitioner.hh) runs it once per bounded-memory pass
 * over a strip range of a TripletSource. Both paths therefore build
 * the same tiles by construction.
 */

#ifndef COPERNICUS_MATRIX_PARTITIONER_HH
#define COPERNICUS_MATRIX_PARTITIONER_HH

#include <cstddef>
#include <functional>
#include <span>
#include <vector>

#include "matrix/tile.hh"
#include "matrix/triplet_matrix.hh"

namespace copernicus {

/** Result of partitioning one matrix at one partition size. */
struct Partitioning
{
    /** Partition edge length p used. */
    Index partitionSize = 0;

    /** Tiles of the partition grid, row-major. */
    Index gridRows = 0;
    Index gridCols = 0;

    /** The non-zero tiles, sorted by (tileRow, tileCol). */
    std::vector<Tile> tiles;

    /** Number of all-zero tiles that were elided. */
    std::size_t zeroTiles = 0;

    /** Total tiles in the grid (non-zero + elided). */
    std::size_t totalTiles() const { return tiles.size() + zeroTiles; }

    /** Fraction of tiles that contain at least one non-zero. */
    double
    nonZeroTileFraction() const
    {
        const std::size_t total = totalTiles();
        return total == 0 ? 0.0
                          : static_cast<double>(tiles.size()) / total;
    }
};

/**
 * Partition @p matrix into @p partitionSize x @p partitionSize tiles.
 *
 * Edge tiles of matrices whose dimension is not a multiple of the
 * partition size are zero-padded, matching the fixed-width hardware
 * buffers of the platform.
 *
 * @param matrix Finalized source matrix.
 * @param partitionSize Edge length p of each tile; must be positive.
 * @return Non-zero tiles plus grid bookkeeping.
 */
Partitioning partition(const TripletMatrix &matrix, Index partitionSize);

/**
 * The tile scatter both partitioners share: bucket a run of triplets
 * by tile and emit the run's non-zero tiles in (tileRow, tileCol)
 * order.
 *
 * @p run must hold every non-zero of tile-row strips
 * [@p stripBegin, @p stripEnd) and nothing else, in canonical order:
 * row-major, strictly increasing (row, col), in range and non-zero,
 * as TripletMatrix::finalize() leaves it and every TripletSource scans
 * it. A stable scatter of such a run leaves each bucket sorted
 * row-major in tile-local coordinates, which is exactly the nonzero
 * stream a Tile is constructed from.
 *
 * @param partitionSize Edge length p of each tile; must be positive.
 * @param gridCols Tile columns of the partition grid.
 * @param bucketed Called once, before the first tile, with the number
 *        of tiles @p emit is about to receive. @p run is not read after
 *        this call, so the caller may release its storage here.
 * @param emit Called once per non-zero tile; the tile is moved in.
 */
void scatterTiles(std::span<const Triplet> run, Index partitionSize,
                  Index stripBegin, Index stripEnd, Index gridCols,
                  const std::function<void(std::size_t)> &bucketed,
                  const std::function<void(Tile &&)> &emit);

} // namespace copernicus

#endif // COPERNICUS_MATRIX_PARTITIONER_HH
