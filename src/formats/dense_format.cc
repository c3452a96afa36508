#include "formats/dense_format.hh"

namespace copernicus {

std::unique_ptr<EncodedTile>
DenseCodec::encode(const Tile &tile) const
{
    const Index p = tile.size();
    std::vector<Value> values(static_cast<std::size_t>(p) * p, Value(0));
    for (const TileNonzero &e : tile.nonzeros())
        values[static_cast<std::size_t>(e.row) * p + e.col] = e.value;
    return std::make_unique<DenseEncoded>(p, tile.nnz(), std::move(values));
}

void
DenseCodec::decodeInto(const EncodedTile &encoded,
                       TileBuilder &tile) const
{
    const auto &dense = encodedAs<DenseEncoded>(encoded,
                                                FormatKind::Dense);
    const Index p = dense.tileSize();
    tile.reset(p);
    tile.reserve(dense.nnz());
    for (Index r = 0; r < p; ++r)
        tile.setRun(r, 0,
                    dense.values.data() + static_cast<std::size_t>(r) * p,
                    p);
}

} // namespace copernicus
