#include "formats/ell_format.hh"

#include <algorithm>

#include "common/status.hh"

namespace copernicus {

std::string
EllCodec::paramsViolation(Index minWidth)
{
    return minWidth == 0 ? "ELL minimum width must be positive" : "";
}

EllCodec::EllCodec(Index minWidth) : wMin(minWidth)
{
    const std::string why = paramsViolation(minWidth);
    COPERNICUS_FATAL_IF(!why.empty(), why);
}

Index
EllCodec::widthFor(const Tile &tile) const
{
    return std::max(std::min(wMin, tile.size()), tile.maxRowNnz());
}

std::unique_ptr<EncodedTile>
EllCodec::encode(const Tile &tile) const
{
    const Index p = tile.size();
    const auto &nz = tile.nonzeros();
    const TileStats &feat = tile.features();
    const Index width = std::max(std::min(wMin, p), feat.maxRowNnz);
    auto encoded = std::make_unique<EllEncoded>(p, feat.nnz, width);
    // rowStart gives each nonzero's slot within its row directly.
    for (Index i = 0; i < feat.nnz; ++i) {
        const TileNonzero &e = nz[i];
        const Index slot = i - feat.rowStart[e.row];
        encoded->valueAt(e.row, slot) = e.value;
        encoded->colAt(e.row, slot) = e.col;
    }
    return encoded;
}

void
EllCodec::decodeInto(const EncodedTile &encoded,
                     TileBuilder &tile) const
{
    const auto &ell = encodedAs<EllEncoded>(encoded, FormatKind::ELL);
    const Index p = ell.tileSize();
    tile.reset(p);
    tile.reserve(ell.nnz());
    for (Index r = 0; r < p; ++r) {
        for (Index slot = 0; slot < ell.width(); ++slot) {
            const Index col = ell.colAt(r, slot);
            if (col == EllEncoded::padMarker)
                break;
            tile.set(r, col, ell.valueAt(r, slot));
        }
    }
}

} // namespace copernicus
