#include "formats/lil_format.hh"

namespace copernicus {

std::unique_ptr<EncodedTile>
LilCodec::encode(const Tile &tile) const
{
    const Index p = tile.size();
    const auto &nz = tile.nonzeros();
    const TileStats &feat = tile.features();
    // Height is the longest column plus one all-sentinel terminator row.
    const Index height = feat.maxColNnz + 1;
    auto encoded = std::make_unique<LilEncoded>(p, feat.nnz, height);
    // The row-major stream visits each column's rows in ascending
    // order, so per-column level counters reproduce the column scan.
    std::vector<Index> level(p, 0);
    for (const TileNonzero &e : nz) {
        const Index l = level[e.col]++;
        encoded->valueAt(l, e.col) = e.value;
        encoded->rowAt(l, e.col) = e.row;
    }
    return encoded;
}

std::vector<TypedStream>
LilEncoded::typedStreams() const
{
    TypedStream values{StreamClass::Value, "values", {}};
    TypedStream rows{StreamClass::Index, "rowInx", {}};
    // Column-major: each column's packed list, closed by one
    // end-marker entry (a zero value slot under the endMarker row).
    for (Index col = 0; col < tileSize(); ++col) {
        for (Index level = 0;; ++level) {
            const Index row = rowAt(level, col);
            if (row == endMarker) {
                const Value sentinel = Value(0);
                appendScalarBytes(values.bytes, &sentinel, 1);
                appendScalarBytes(rows.bytes, &row, 1);
                break;
            }
            const Value value = valueAt(level, col);
            appendScalarBytes(values.bytes, &value, 1);
            appendScalarBytes(rows.bytes, &row, 1);
        }
    }
    std::vector<TypedStream> out;
    out.push_back(std::move(values));
    out.push_back(std::move(rows));
    return out;
}

Tile
LilCodec::decode(const EncodedTile &encoded) const
{
    const auto &lil = encodedAs<LilEncoded>(encoded, FormatKind::LIL);
    const Index p = lil.tileSize();
    TileBuilder tile(p);
    tile.reserve(lil.nnz());
    for (Index c = 0; c < p; ++c) {
        for (Index level = 0; level < lil.height(); ++level) {
            const Index row = lil.rowAt(level, c);
            if (row == LilEncoded::endMarker)
                break;
            tile.set(row, c, lil.valueAt(level, c));
        }
    }
    return tile.build();
}

} // namespace copernicus
