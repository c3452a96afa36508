/**
 * @file
 * Per-format decompressor cycle models (Section 5.2, Listings 1-7).
 *
 * Each model walks the real encoded arrays and prices the control flow
 * of the paper's HLS implementation with the scheduling rules from
 * schedule.hh, so the resulting cycle counts are data-dependent exactly
 * the way the hardware's are: CSR pays for an offsets access and its
 * latency scales with the non-zeros per row; CSC re-scans the whole
 * entry list once per output row; LIL pays a merge bounded by its
 * longest column; ELL processes every row at the compressed width;
 * DIA scans its stored diagonals for every row; and so on.
 *
 * The model also returns the number of rows handed to the dot-product
 * engine, which is the nnz_rows term of Eq. 1 (p for formats that cannot
 * skip all-zero rows, like ELL and Dense).
 */

#ifndef COPERNICUS_HLS_DECOMPRESSOR_HH
#define COPERNICUS_HLS_DECOMPRESSOR_HH

#include "formats/encoded_tile.hh"
#include "hls/hls_config.hh"
#include "matrix/tile.hh"

namespace copernicus {

/** Outcome of decompressing one encoded tile. */
struct DecompressResult
{
    /** Decompression cycles T_decomp (Eq. 1 numerator's first term). */
    Cycles decompressCycles = 0;

    /** Rows fed to the dot engine (Eq. 1's nnz_rows term). */
    Index rowsProduced = 0;

    /**
     * The reconstructed tile, compared against the source tile's
     * nonzero stream for functional verification.
     */
    Tile decoded;
};

/**
 * Run the cycle model for @p encoded.
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
double sigmaOverhead(const DecompressResult &result, Index p,
                     const HlsConfig &config);

/**
 * Compute-stage latency of one tile: decompression plus the serialized
 * dot products of the produced rows (Section 4.2's "computation latency
 * consisting of decompression, dot-product, and necessary BRAM
 * accesses").
 */
Cycles computeCycles(const DecompressResult &result,
                     const HlsConfig &config);

} // namespace copernicus

#endif // COPERNICUS_HLS_DECOMPRESSOR_HH
