#include "formats/dok_format.hh"

#include <algorithm>

namespace copernicus {

std::unique_ptr<EncodedTile>
DokCodec::encode(const Tile &tile) const
{
    const auto &nz = tile.nonzeros();
    auto encoded = std::make_unique<DokEncoded>(tile.size(), tile.nnz());
    encoded->table.reserve(nz.size());
    for (const TileNonzero &e : nz)
        encoded->table.emplace(DokEncoded::key(e.row, e.col), e.value);
    return encoded;
}

std::vector<TypedStream>
DokEncoded::typedStreams() const
{
    // Sorted (row, col) order: the packed key sorts row-major, so one
    // sort of the keys yields the canonical COO ordering.
    std::vector<std::uint64_t> keys;
    keys.reserve(table.size());
    for (const auto &[key, value] : table)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());

    TypedStream values{StreamClass::Value, "values", {}};
    TypedStream rows{StreamClass::Index, "rowInx", {}};
    TypedStream cols{StreamClass::Index, "colInx", {}};
    for (const std::uint64_t key : keys) {
        const Index row = static_cast<Index>(key >> 32);
        const Index col = static_cast<Index>(key & 0xffffffffULL);
        const Value value = table.at(key);
        appendScalarBytes(values.bytes, &value, 1);
        appendScalarBytes(rows.bytes, &row, 1);
        appendScalarBytes(cols.bytes, &col, 1);
    }
    std::vector<TypedStream> out;
    out.push_back(std::move(values));
    out.push_back(std::move(rows));
    out.push_back(std::move(cols));
    return out;
}

Tile
DokCodec::decode(const EncodedTile &encoded) const
{
    const auto &dok = encodedAs<DokEncoded>(encoded, FormatKind::DOK);
    TileBuilder tile(dok.tileSize());
    tile.reserve(dok.nnz());
    for (const auto &[key, value] : dok.table) {
        const Index row = static_cast<Index>(key >> 32);
        const Index col = static_cast<Index>(key & 0xffffffffULL);
        tile.set(row, col, value);
    }
    return tile.build();
}

} // namespace copernicus
