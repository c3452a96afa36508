#include "formats/csc_format.hh"

namespace copernicus {

std::unique_ptr<EncodedTile>
CscCodec::encode(const Tile &tile) const
{
    const Index p = tile.size();
    const auto &nz = tile.nonzeros();
    const TileStats &feat = tile.features();
    auto encoded = std::make_unique<CscEncoded>(p, feat.nnz);
    // Counting scatter turns the row-major nonzero stream column-major:
    // within one column the stream visits rows in ascending order, so
    // each column's run comes out row-sorted, matching a column scan.
    std::vector<Index> pos(p);
    encoded->offsets.reserve(p);
    Index running = 0;
    for (Index c = 0; c < p; ++c) {
        pos[c] = running;
        running += feat.colNnz[c];
        encoded->offsets.push_back(running);
    }
    encoded->rowInx.resize(nz.size());
    encoded->values.resize(nz.size());
    for (const TileNonzero &e : nz) {
        const Index at = pos[e.col]++;
        encoded->rowInx[at] = e.row;
        encoded->values[at] = e.value;
    }
    return encoded;
}

void
CscCodec::decodeInto(const EncodedTile &encoded,
                     TileBuilder &tile) const
{
    const auto &csc = encodedAs<CscEncoded>(encoded, FormatKind::CSC);
    const Index p = csc.tileSize();
    tile.reset(p);
    tile.reserve(csc.nnz());
    for (Index c = 0; c < p; ++c)
        for (Index i = csc.colStart(c); i < csc.colEnd(c); ++i)
            tile.set(csc.rowInx[i], c, csc.values[i]);
}

} // namespace copernicus
