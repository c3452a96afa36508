/**
 * @file
 * SpMV on compressed tiles, along the path of the modelled hardware
 * (Figure 2): each format's one decoder, FormatCodec::decode(), rebuilds
 * the tile, and the p-wide adder-tree dot engine multiplies its rows.
 * So every format returns the same y bit for bit, the dense
 * reference's, and a malformed encoding gets the decoder's typed error
 * instead of an out-of-bounds read.
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
 * y = tile * x, one full p-wide dot per row as the adder-tree engine
 * (kernels/dot_engine) computes it.
 *
 * @param tile Any tile.
 * @param x Input segment of length p.
 * @return Output segment of length p.
 */
std::vector<Value> spmvDense(const Tile &tile, std::span<const Value> x);

/**
 * y = encoded * x: decode with the default codec of encoded.kind(),
 * then spmvDense(). Bit-identical to spmvDense() of the source tile.
 *
 * @param encoded Tile in any implemented format; an encoding its
 *        decoder rejects is that decoder's PanicError.
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
 * @param x Input vector, at most the padded width gridCols *
 *        partitionSize long (a longer one is a FatalError); a shorter
 *        one is zero-extended to it.
 * @param registry Codec source, defaults to the paper's parameters.
 * @return Output vector of padded length gridRows * partitionSize.
 */
std::vector<Value> spmvPartitioned(
    const Partitioning &parts, FormatKind kind,
    std::span<const Value> x,
    const FormatRegistry &registry = defaultRegistry());

} // namespace copernicus

#endif // COPERNICUS_KERNELS_SPMV_HH
