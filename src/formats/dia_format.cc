#include "formats/dia_format.hh"

#include <cstdint>
#include <cstdlib>
#include <vector>

namespace copernicus {

std::unique_ptr<EncodedTile>
DiaCodec::encode(const Tile &tile) const
{
    const Index p = tile.size();
    const auto &nz = tile.nonzeros();
    const TileStats &feat = tile.features();
    auto encoded = std::make_unique<DiaEncoded>(p, feat.nnz);
    // One pass marks the populated diagonals; ascending bucket order
    // matches a scan from d = -(p-1) to p-1. Slot index p-1+d keeps
    // buckets non-negative.
    const std::size_t diagCount = 2 * static_cast<std::size_t>(p) - 1;
    std::vector<std::int32_t> diagSlot(diagCount, -1);
    for (const TileNonzero &e : nz) {
        const std::size_t k = static_cast<std::size_t>(p) - 1 - e.row +
                              e.col;
        diagSlot[k] = 0;
    }
    encoded->diagonals.reserve(feat.nnzDiagonals);
    for (std::size_t k = 0; k < diagCount; ++k) {
        if (diagSlot[k] < 0)
            continue;
        diagSlot[k] = static_cast<std::int32_t>(encoded->diagonals.size());
        DiaDiagonal diag;
        diag.number = static_cast<std::int32_t>(k) -
                      (static_cast<std::int32_t>(p) - 1);
        diag.values.assign(p, Value(0));
        encoded->diagonals.push_back(std::move(diag));
    }
    for (const TileNonzero &e : nz) {
        const std::size_t k = static_cast<std::size_t>(p) - 1 - e.row +
                              e.col;
        DiaDiagonal &diag =
            encoded->diagonals[static_cast<std::size_t>(diagSlot[k])];
        diag.values[DiaEncoded::slotForRow(e.row, diag.number)] = e.value;
    }
    return encoded;
}

void
DiaCodec::decodeInto(const EncodedTile &encoded,
                     TileBuilder &tile) const
{
    const auto &dia = encodedAs<DiaEncoded>(encoded, FormatKind::DIA);
    const Index p = dia.tileSize();
    tile.reset(p);
    tile.reserve(dia.nnz());
    // Listing 7 scans every stored diagonal for every row; the decode
    // walks only each diagonal's valid slots. Slot s of diagonal d is
    // cell (s + max(0, -d), s + max(0, d)) for s < p - |d|, so a
    // number outside (-p, p) has no slot.
    for (const DiaDiagonal &diag : dia.diagonals) {
        const std::int64_t d = diag.number;
        const std::int64_t reach = std::int64_t(p) - std::abs(d);
        const Index row0 = d < 0 ? static_cast<Index>(-d) : 0;
        const Index col0 = d > 0 ? static_cast<Index>(d) : 0;
        for (std::int64_t s = 0; s < reach; ++s)
            tile.set(row0 + static_cast<Index>(s),
                     col0 + static_cast<Index>(s),
                     diag.values[static_cast<std::size_t>(s)]);
    }
}

} // namespace copernicus
