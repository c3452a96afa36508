#include "formats/ellcoo_format.hh"

#include <algorithm>

#include "common/status.hh"

namespace copernicus {

std::string
EllCooCodec::paramsViolation(Index width)
{
    return width == 0 ? "ELL+COO width must be positive" : "";
}

EllCooCodec::EllCooCodec(Index width) : w(width)
{
    const std::string why = paramsViolation(width);
    COPERNICUS_FATAL_IF(!why.empty(), why);
}

std::unique_ptr<EncodedTile>
EllCooCodec::encode(const Tile &tile) const
{
    const Index p = tile.size();
    const Index width = std::min(w, p);
    const auto &nz = tile.nonzeros();
    const TileStats &feat = tile.features();
    auto encoded = std::make_unique<EllCooEncoded>(p, feat.nnz, width);
    // The first `width` nonzeros of each row fill the ELL part; the
    // row-major stream appends the rest to the COO overflow in the
    // same row-then-column order a dense scan would.
    for (Index i = 0; i < feat.nnz; ++i) {
        const TileNonzero &e = nz[i];
        const Index slot = i - feat.rowStart[e.row];
        if (slot < width) {
            encoded->valueAt(e.row, slot) = e.value;
            encoded->colAt(e.row, slot) = e.col;
        } else {
            encoded->overflowRows.push_back(e.row);
            encoded->overflowCols.push_back(e.col);
            encoded->overflowValues.push_back(e.value);
        }
    }
    return encoded;
}

void
EllCooCodec::decodeInto(const EncodedTile &encoded,
                        TileBuilder &tile) const
{
    const auto &hybrid = encodedAs<EllCooEncoded>(encoded,
                                                  FormatKind::ELLCOO);
    const Index p = hybrid.tileSize();
    tile.reset(p);
    tile.reserve(hybrid.nnz());
    for (Index r = 0; r < p; ++r) {
        for (Index slot = 0; slot < hybrid.width(); ++slot) {
            const Index col = hybrid.colAt(r, slot);
            if (col == EllCooEncoded::padMarker)
                break;
            tile.set(r, col, hybrid.valueAt(r, slot));
        }
    }
    for (std::size_t i = 0; i < hybrid.overflowValues.size(); ++i) {
        tile.set(hybrid.overflowRows[i], hybrid.overflowCols[i],
                 hybrid.overflowValues[i]);
    }
}

} // namespace copernicus
