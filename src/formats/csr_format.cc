#include "formats/csr_format.hh"

namespace copernicus {

std::unique_ptr<EncodedTile>
CsrCodec::encode(const Tile &tile) const
{
    const Index p = tile.size();
    const auto &nz = tile.nonzeros();
    const TileStats &feat = tile.features();
    auto encoded = std::make_unique<CsrEncoded>(p, feat.nnz);
    encoded->colInx.reserve(nz.size());
    encoded->values.reserve(nz.size());
    for (const TileNonzero &e : nz) {
        encoded->colInx.push_back(e.col);
        encoded->values.push_back(e.value);
    }
    encoded->offsets.reserve(p);
    for (Index r = 0; r < p; ++r)
        encoded->offsets.push_back(feat.rowStart[r + 1]);
    return encoded;
}

void
CsrCodec::decodeInto(const EncodedTile &encoded,
                     TileBuilder &tile) const
{
    const auto &csr = encodedAs<CsrEncoded>(encoded, FormatKind::CSR);
    const Index p = csr.tileSize();
    tile.reset(p);
    tile.reserve(csr.nnz());
    for (Index r = 0; r < p; ++r)
        for (Index i = csr.rowStart(r); i < csr.rowEnd(r); ++i)
            tile.set(r, csr.colInx[i], csr.values[i]);
}

} // namespace copernicus
