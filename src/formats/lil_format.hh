/**
 * @file
 * LIL codec (Section 2, Figure 1f; decompression Listing 4).
 *
 * Copernicus's LIL convention compresses the rows and preserves the
 * columns: within each column, non-zero entries are pushed to the top and
 * their row indices are recorded. Storage is two height x p arrays
 * (values and row indices), where height is the longest column's non-zero
 * count plus one sentinel row that marks the end of the lists — the
 * "additional row" whose transfer the paper charges to LIL's memory
 * latency.
 */

#ifndef COPERNICUS_FORMATS_LIL_FORMAT_HH
#define COPERNICUS_FORMATS_LIL_FORMAT_HH

#include "formats/codec.hh"

namespace copernicus {

/** LIL-encoded tile. */
class LilEncoded : public EncodedTile
{
  public:
    /** Row-index value marking a padded/terminated list slot. */
    static constexpr Index endMarker = ~Index(0);

    LilEncoded(Index tileSize, Index nnz, Index height)
        : EncodedTile(tileSize, nnz), h(height),
          values(static_cast<std::size_t>(height) * tileSize, Value(0)),
          rowInx(static_cast<std::size_t>(height) * tileSize, endMarker)
    {}

    FormatKind kind() const override { return FormatKind::LIL; }

    /**
     * The compact wire image: per column, the packed (value, row)
     * entries followed by one end-marker entry — the padded BRAM
     * arrays never cross the memory interface.
     */
    void declareStreams(StreamDeclarer &declare) const override;

    /** Stored rows: longest column + 1 sentinel row. */
    Index height() const { return h; }

    Value &
    valueAt(Index level, Index col)
    {
        return values[static_cast<std::size_t>(level) * p + col];
    }

    Value
    valueAt(Index level, Index col) const
    {
        return values[static_cast<std::size_t>(level) * p + col];
    }

    Index &
    rowAt(Index level, Index col)
    {
        return rowInx[static_cast<std::size_t>(level) * p + col];
    }

    Index
    rowAt(Index level, Index col) const
    {
        return rowInx[static_cast<std::size_t>(level) * p + col];
    }

  private:
    Index h;

  public:
    /** height x p values, column lists pushed to the top. */
    std::vector<Value> values;

    /** height x p row indices; endMarker pads exhausted lists. */
    std::vector<Index> rowInx;
};

/** Codec for LIL. */
class LilCodec : public FormatCodec
{
  public:
    FormatKind kind() const override { return FormatKind::LIL; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    void decodeInto(const EncodedTile &encoded,
                    TileBuilder &tile) const override;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_LIL_FORMAT_HH
