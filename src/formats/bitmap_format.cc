#include "formats/bitmap_format.hh"

namespace copernicus {

std::unique_ptr<EncodedTile>
BitmapCodec::encode(const Tile &tile) const
{
    const auto &nz = tile.nonzeros();
    auto encoded = std::make_unique<BitmapEncoded>(tile.size(),
                                                   tile.nnz());
    encoded->values.reserve(nz.size());
    for (const TileNonzero &e : nz) {
        encoded->set(e.row, e.col);
        encoded->values.push_back(e.value);
    }
    return encoded;
}

void
BitmapCodec::decodeInto(const EncodedTile &encoded,
                        TileBuilder &tile) const
{
    const auto &bitmap = encodedAs<BitmapEncoded>(encoded,
                                                  FormatKind::BITMAP);
    const Index p = bitmap.tileSize();
    tile.reset(p);
    tile.reserve(bitmap.nnz());
    std::size_t next = 0;
    for (Index r = 0; r < p; ++r)
        for (Index c = 0; c < p; ++c)
            if (bitmap.test(r, c))
                tile.set(r, c, bitmap.values[next++]);
}

} // namespace copernicus
