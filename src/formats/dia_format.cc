#include "formats/dia_format.hh"

#include <cstdint>
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
    // Listing 7: for each row, scan every stored diagonal.
    for (Index row = 0; row < p; ++row) {
        for (const auto &diag : dia.diagonals) {
            if (!dia.rowOnDiagonal(row, diag.number))
                continue;
            const Index col = static_cast<Index>(
                static_cast<std::int32_t>(row) + diag.number);
            tile.set(row, col,
                     diag.values[DiaEncoded::slotForRow(row, diag.number)]);
        }
    }
}

} // namespace copernicus
