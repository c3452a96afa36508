/**
 * @file
 * SpMV kernels that consume compressed tiles directly.
 *
 * These are the software mirror of the hardware's decompress+dot pipeline:
 * each format-specific kernel walks the encoded arrays without first
 * materializing the dense tile (the paper notes the performance
 * implications apply equally to "accelerators that directly perform
 * computations on compressed data"). Tests check every kernel against
 * decode-then-dense-multiply.
 */

#ifndef COPERNICUS_KERNELS_SPMV_HH
#define COPERNICUS_KERNELS_SPMV_HH

#include <span>
#include <vector>

#include "formats/encoded_tile.hh"
#include "formats/registry.hh"
#include "matrix/partitioner.hh"
#include "matrix/tile.hh"

namespace copernicus {

/**
 * y = tile * x, one full p-wide dot per row as the dense engine computes
 * it (the reference the compressed-domain kernels are tested against).
 *
 * @param tile Any tile.
 * @param x Input segment of length p.
 * @return Output segment of length p.
 */
std::vector<Value> spmvDense(const Tile &tile, std::span<const Value> x);

/**
 * y = encoded * x, computed directly on the compressed representation.
 *
 * @param encoded Tile in any implemented format.
 * @param x Input segment of length tileSize().
 * @return Output segment of length tileSize().
 */
std::vector<Value> spmvEncoded(const EncodedTile &encoded,
                               std::span<const Value> x);

/**
 * Full-matrix SpMV over a partitioning, encoding each non-zero tile in
 * @p kind and accumulating the per-tile partial products.
 *
 * @param parts Partitioning of the operand matrix.
 * @param kind Format every tile is compressed in.
 * @param x Input vector, length >= gridCols * partitionSize (the padded
 *        width); shorter vectors are zero-extended to the padded width.
 * @param registry Codec source, defaults to the paper's parameters.
 * @return Output vector of padded length gridRows * partitionSize.
 */
std::vector<Value> spmvPartitioned(
    const Partitioning &parts, FormatKind kind,
    std::span<const Value> x,
    const FormatRegistry &registry = defaultRegistry());

} // namespace copernicus

#endif // COPERNICUS_KERNELS_SPMV_HH
