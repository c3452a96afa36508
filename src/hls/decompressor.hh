/**
 * @file
 * The decompressor model of one encoded tile (Section 5.2, Listings
 * 1-7).
 *
 * Each format's decode loop nest is declared once as a schedule spec
 * (formats/schedule_spec.hh) whose trip counts are read from the real
 * encoded arrays, and hls/schedule_ir.hh folds that spec into cycles,
 * so the counts are data-dependent exactly the way the hardware's are:
 * CSR pays for an offsets access and its latency scales with the
 * non-zeros per row; CSC re-scans the whole entry list once per output
 * row; LIL pays a merge bounded by its longest column; ELL processes
 * every row at the compressed width; DIA scans its stored diagonals for
 * every row; and so on.
 *
 * The model also returns the number of rows handed to the dot-product
 * engine, which is the nnz_rows term of Eq. 1 (p for formats that cannot
 * skip all-zero rows, like ELL and Dense).
 *
 * Every decode is functionally verified. verifyDecompression() replays
 * the encoding into a TileBuilder and checks it against the source tile
 * in place; simulateDecompression() is for callers without a source
 * tile and hands the decoded tile back instead.
 */

#ifndef COPERNICUS_HLS_DECOMPRESSOR_HH
#define COPERNICUS_HLS_DECOMPRESSOR_HH

#include "formats/encoded_tile.hh"
#include "hls/hls_config.hh"
#include "matrix/tile.hh"

namespace copernicus {

/** Cycle cost of decompressing one encoded tile. */
struct DecompressCost
{
    /** Decompression cycles T_decomp (Eq. 1 numerator's first term). */
    Cycles decompressCycles = 0;

    /** Rows fed to the dot engine (Eq. 1's nnz_rows term). */
    Index rowsProduced = 0;

    /** Edge length p of the tile. */
    Index tileSize = 0;
};

/** A decompression cost together with the tile it reconstructed. */
struct DecompressResult : DecompressCost
{
    /** The reconstructed tile. */
    Tile decoded;
};

/**
 * Run the cycle model for @p encoded and check its decode against
 * @p source without building a tile: the decoder replays into a
 * builder compared in place (TileBuilder::matches()), and the Eq. 1
 * row count is read from @p source, which the decode equals.
 *
 * @param encoded Tile in any implemented format.
 * @param source The tile @p encoded was made from.
 * @param config Platform parameters.
 * @return Cycles and dot-engine row count. Throws PanicError when the
 *         decode differs from @p source.
 */
DecompressCost verifyDecompression(const EncodedTile &encoded,
                                   const Tile &source,
                                   const HlsConfig &config);

/**
 * Run the cycle model for @p encoded when no source tile is at hand.
 *
 * @param encoded Tile in any implemented format.
 * @param config Platform parameters.
 * @return Cycles, dot-engine row count and the reconstructed tile.
 */
DecompressResult simulateDecompression(const EncodedTile &encoded,
                                       const HlsConfig &config);

/**
 * Eq. 1: sigma = (T_decomp + rows * T_dot) / (p * T_dot).
 *
 * Exactly 1 for the dense baseline (T_decomp = 0, rows = p).
 */
double sigmaOverhead(const DecompressCost &result, Index p,
                     const HlsConfig &config);

/**
 * Compute-stage latency of one tile: decompression plus the serialized
 * dot products of the produced rows (Section 4.2's "computation latency
 * consisting of decompression, dot-product, and necessary BRAM
 * accesses").
 */
Cycles computeCycles(const DecompressCost &result,
                     const HlsConfig &config);

} // namespace copernicus

#endif // COPERNICUS_HLS_DECOMPRESSOR_HH
