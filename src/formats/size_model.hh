/**
 * @file
 * Analytic encoded-size model: predict a tile's wire bytes in every
 * format from its sparsity statistics alone, without encoding.
 *
 * This is what an architect sizing buffers or a scheduler picking a
 * format per tile actually needs — the byte cost is a closed-form
 * function of (nnz, non-zero blocks, longest row/column, diagonal
 * count). The test suite verifies the model against the real codecs
 * bit-for-bit across formats, sizes and densities.
 */

#ifndef COPERNICUS_FORMATS_SIZE_MODEL_HH
#define COPERNICUS_FORMATS_SIZE_MODEL_HH

#include "formats/format_kind.hh"
#include "formats/registry.hh"
#include "matrix/tile.hh"

namespace copernicus {

/** Sparsity statistics a size prediction needs. */
struct TileShape
{
    /** Tile edge length p. */
    Index p = 0;

    /** Non-zero count. */
    Index nnz = 0;

    /** Longest row, in non-zeros. */
    Index maxRowNnz = 0;

    /** Longest column, in non-zeros. */
    Index maxColNnz = 0;

    /** Non-zero b x b blocks for the registry's BCSR block size. */
    Index nnzBlocks = 0;

    /** Non-zero diagonals. */
    Index nnzDiagonals = 0;

    /** Per-slice widths for the registry's SELL slice height. */
    std::vector<Index> sliceWidths;

    /** Per-window-sorted slice widths for SELL-C-sigma. */
    std::vector<Index> sortedSliceWidths;

    /** Non-zeros beyond the ELL+COO width, summed over rows. */
    Index ellCooOverflow = 0;
};

/** Measure the statistics of @p tile for @p params. */
TileShape measureTile(const Tile &tile,
                      const FormatParams &params = FormatParams());

/**
 * Predicted total wire bytes of @p shape in @p kind.
 *
 * Exact for every format: predictedBytes(measureTile(t), k) equals
 * codec(k).encode(t)->totalBytes().
 */
Bytes predictedBytes(const TileShape &shape, FormatKind kind,
                     const FormatParams &params = FormatParams());

/** Predicted bandwidth utilization (nnz payload / predictedBytes). */
double predictedUtilization(const TileShape &shape, FormatKind kind,
                            const FormatParams &params = FormatParams());

} // namespace copernicus

#endif // COPERNICUS_FORMATS_SIZE_MODEL_HH
