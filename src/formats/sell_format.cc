#include "formats/sell_format.hh"

#include <algorithm>

#include "common/status.hh"

namespace copernicus {

void
declareSliceStreams(StreamDeclarer &declare,
                    const std::vector<SellSlice> &slices)
{
    Bytes value_bytes = 0;
    Bytes col_bytes = 0;
    for (const SellSlice &slice : slices) {
        value_bytes += Bytes(slice.values.size()) * valueBytes;
        col_bytes += Bytes(slice.colInx.size()) * indexBytes;
    }
    declare.image(StreamClass::Value, "values", 0, value_bytes,
                  [&](auto &out) {
                      for (const SellSlice &slice : slices)
                          appendScalarBytes(out, slice.values.data(),
                                            slice.values.size());
                  });
    declare.image(StreamClass::Index, "colInx", 1, col_bytes,
                  [&](auto &out) {
                      for (const SellSlice &slice : slices)
                          appendScalarBytes(out, slice.colInx.data(),
                                            slice.colInx.size());
                  });
    declare.image(StreamClass::Offset, "widths", 1,
                  Bytes(slices.size()) * indexBytes, [&](auto &out) {
                      for (const SellSlice &slice : slices)
                          appendScalarBytes(out, &slice.width, 1);
                  });
}

std::string
SellCodec::paramsViolation(Index sliceHeight)
{
    return sliceHeight == 0 ? "SELL slice height must be positive" : "";
}

SellCodec::SellCodec(Index sliceHeight) : c(sliceHeight)
{
    const std::string why = paramsViolation(sliceHeight);
    COPERNICUS_FATAL_IF(!why.empty(), why);
}

std::unique_ptr<EncodedTile>
SellCodec::encode(const Tile &tile) const
{
    const Index p = tile.size();
    COPERNICUS_FATAL_IF(p % c != 0,
                        "SELL slice height must divide the tile size");
    const auto &nz = tile.nonzeros();
    const TileStats &feat = tile.features();
    auto encoded = std::make_unique<SellEncoded>(p, feat.nnz, c);
    encoded->slices.reserve(p / c);
    for (Index base = 0; base < p; base += c) {
        SellSlice slice;
        for (Index r = base; r < base + c; ++r)
            slice.width = std::max(slice.width, feat.rowNnz[r]);
        slice.values.assign(static_cast<std::size_t>(c) * slice.width,
                            Value(0));
        slice.colInx.assign(static_cast<std::size_t>(c) * slice.width,
                            SellEncoded::padMarker);
        for (Index r = base; r < base + c; ++r) {
            for (Index i = feat.rowStart[r]; i < feat.rowStart[r + 1];
                 ++i) {
                const auto at =
                    static_cast<std::size_t>(r - base) * slice.width +
                    (i - feat.rowStart[r]);
                slice.values[at] = nz[i].value;
                slice.colInx[at] = nz[i].col;
            }
        }
        encoded->slices.push_back(std::move(slice));
    }
    return encoded;
}

void
SellCodec::decodeInto(const EncodedTile &encoded,
                      TileBuilder &tile) const
{
    const auto &sell = encodedAs<SellEncoded>(encoded, FormatKind::SELL);
    const Index p = sell.tileSize();
    const Index c = sell.sliceHeight();
    tile.reset(p);
    tile.reserve(sell.nnz());
    for (std::size_t s = 0; s < sell.slices.size(); ++s) {
        const auto &slice = sell.slices[s];
        const Index base = static_cast<Index>(s) * c;
        for (Index r = 0; r < c; ++r) {
            for (Index slot = 0; slot < slice.width; ++slot) {
                const auto at = static_cast<std::size_t>(r) * slice.width +
                                slot;
                const Index col = slice.colInx[at];
                if (col == SellEncoded::padMarker)
                    break;
                tile.set(base + r, col, slice.values[at]);
            }
        }
    }
}

} // namespace copernicus
