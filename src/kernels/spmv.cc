#include "kernels/spmv.hh"

#include <algorithm>

#include "common/status.hh"
#include "kernels/dot_engine.hh"

namespace copernicus {

namespace {

void
checkOperand(Index p, std::span<const Value> x, const char *what)
{
    COPERNICUS_FATAL_IF(
        x.size() != p,
        std::string(what) + ": operand length must equal tile size");
}

} // namespace

std::vector<Value>
spmvDense(const Tile &tile, std::span<const Value> x)
{
    checkOperand(tile.size(), x, "spmvDense");
    const Index p = tile.size();
    std::vector<Value> y(p, Value(0));
    const std::vector<TileNonzero> &nz = tile.nonzeros();
    const std::vector<Index> &rowStart = tile.features().rowStart;
    std::vector<Value> row(p);
    for (Index r = 0; r < p; ++r) {
        std::fill(row.begin(), row.end(), Value(0));
        for (Index i = rowStart[r]; i < rowStart[r + 1]; ++i)
            row[nz[i].col] = nz[i].value;
        y[r] = treeDot(row, x);
    }
    return y;
}

std::vector<Value>
spmvEncoded(const EncodedTile &encoded, std::span<const Value> x)
{
    checkOperand(encoded.tileSize(), x, "spmvEncoded");
    return spmvDense(defaultCodec(encoded.kind()).decode(encoded), x);
}

std::vector<Value>
spmvPartitioned(const Partitioning &parts, FormatKind kind,
                std::span<const Value> x, const FormatRegistry &registry)
{
    const Index p = parts.partitionSize;
    const std::size_t padded_cols =
        static_cast<std::size_t>(parts.gridCols) * p;
    COPERNICUS_FATAL_IF(
        x.size() > padded_cols,
        "spmvPartitioned: operand longer than the padded width");

    std::vector<Value> padded_x(padded_cols, Value(0));
    std::copy(x.begin(), x.end(), padded_x.begin());

    std::vector<Value> y(static_cast<std::size_t>(parts.gridRows) * p,
                         Value(0));
    const FormatCodec &codec = registry.codec(kind);
    for (const Tile &tile : parts.tiles) {
        const auto encoded = codec.encode(tile);
        const std::span<const Value> segment(
            padded_x.data() + static_cast<std::size_t>(tile.tileCol()) * p,
            p);
        const auto partial = spmvEncoded(*encoded, segment);
        const std::size_t base =
            static_cast<std::size_t>(tile.tileRow()) * p;
        for (Index r = 0; r < p; ++r)
            y[base + r] += partial[r];
    }
    return y;
}

} // namespace copernicus
