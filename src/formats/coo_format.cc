#include "formats/coo_format.hh"

namespace copernicus {

std::unique_ptr<EncodedTile>
CooCodec::encode(const Tile &tile) const
{
    const Index p = tile.size();
    const auto &nz = tile.nonzeros();
    auto encoded = std::make_unique<CooEncoded>(p, tile.nnz());
    encoded->rowInx.reserve(nz.size());
    encoded->colInx.reserve(nz.size());
    encoded->values.reserve(nz.size());
    for (const TileNonzero &e : nz) {
        encoded->rowInx.push_back(e.row);
        encoded->colInx.push_back(e.col);
        encoded->values.push_back(e.value);
    }
    return encoded;
}

void
CooCodec::decodeInto(const EncodedTile &encoded,
                     TileBuilder &tile) const
{
    const auto &coo = encodedAs<CooEncoded>(encoded, FormatKind::COO);
    tile.reset(coo.tileSize());
    tile.reserve(coo.nnz());
    for (std::size_t i = 0; i < coo.values.size(); ++i)
        tile.set(coo.rowInx[i], coo.colInx[i], coo.values[i]);
}

} // namespace copernicus
