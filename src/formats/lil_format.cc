#include "formats/lil_format.hh"

namespace copernicus {

namespace {

/**
 * Visit the compact wire entries of @p lil as (row, value), column by
 * column: each column's packed list, closed by one end-marker entry
 * with a zero value.
 */
template <typename Fn>
void
forEachWireEntry(const LilEncoded &lil, Fn &&fn)
{
    for (Index col = 0; col < lil.tileSize(); ++col) {
        for (Index level = 0;; ++level) {
            const Index row = lil.rowAt(level, col);
            if (row == LilEncoded::endMarker) {
                fn(row, Value(0));
                break;
            }
            fn(row, lil.valueAt(level, col));
        }
    }
}

} // namespace

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

void
LilEncoded::declareStreams(StreamDeclarer &declare) const
{
    // The paper's "number of non-zero rows, the size of rows, and one
    // additional row": one entry per non-zero plus one end marker per
    // column. The padded 2D arrays exist only in BRAM.
    const Bytes entries = Bytes(nnz()) + tileSize();
    declare.image(StreamClass::Value, "values", 0, entries * valueBytes,
                  [this](auto &out) {
                      forEachWireEntry(*this, [&](Index, Value value) {
                          appendScalarBytes(out, &value, 1);
                      });
                  });
    declare.image(StreamClass::Index, "rowInx", 1, entries * indexBytes,
                  [this](auto &out) {
                      forEachWireEntry(*this, [&](Index row, Value) {
                          appendScalarBytes(out, &row, 1);
                      });
                  });
}

void
LilCodec::decodeInto(const EncodedTile &encoded,
                     TileBuilder &tile) const
{
    const auto &lil = encodedAs<LilEncoded>(encoded, FormatKind::LIL);
    const Index p = lil.tileSize();
    tile.reset(p);
    tile.reserve(lil.nnz());
    for (Index c = 0; c < p; ++c) {
        for (Index level = 0; level < lil.height(); ++level) {
            const Index row = lil.rowAt(level, c);
            if (row == LilEncoded::endMarker)
                break;
            tile.set(row, c, lil.valueAt(level, c));
        }
    }
}

} // namespace copernicus
