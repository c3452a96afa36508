/**
 * @file
 * ELL codec (Section 2, Figure 1g; decompression Listing 5).
 *
 * Non-zeros are pushed to the left within each row and padded to a common
 * width. The paper fixes the compressed width at six; rows longer than
 * that cannot be represented at the fixed width, so the codec widens to
 * the longest row when necessary (width = max(min(6, p), maxRowNnz)),
 * which preserves losslessness while matching the paper's sizing for the
 * sparse workloads it studies.
 */

#ifndef COPERNICUS_FORMATS_ELL_FORMAT_HH
#define COPERNICUS_FORMATS_ELL_FORMAT_HH

#include <string>

#include "formats/codec.hh"

namespace copernicus {

/** ELL-encoded tile. */
class EllEncoded : public EncodedTile
{
  public:
    /** Column-index value marking a padding slot. */
    static constexpr Index padMarker = ~Index(0);

    EllEncoded(Index tileSize, Index nnz, Index width)
        : EncodedTile(tileSize, nnz), w(width),
          values(static_cast<std::size_t>(tileSize) * width, Value(0)),
          colInx(static_cast<std::size_t>(tileSize) * width, padMarker)
    {}

    FormatKind kind() const override { return FormatKind::ELL; }

    void
    declareStreams(StreamDeclarer &declare) const override
    {
        declare.array(StreamClass::Value, "values", 0, values);
        declare.array(StreamClass::Index, "colInx", 1, colInx);
    }

    /** Compressed row width (padding included). */
    Index width() const { return w; }

    Value &
    valueAt(Index row, Index slot)
    {
        return values[static_cast<std::size_t>(row) * w + slot];
    }

    Value
    valueAt(Index row, Index slot) const
    {
        return values[static_cast<std::size_t>(row) * w + slot];
    }

    Index &
    colAt(Index row, Index slot)
    {
        return colInx[static_cast<std::size_t>(row) * w + slot];
    }

    Index
    colAt(Index row, Index slot) const
    {
        return colInx[static_cast<std::size_t>(row) * w + slot];
    }

  private:
    Index w;

  public:
    /** p x width values, rows pushed left, zero-padded. */
    std::vector<Value> values;

    /** p x width column indices; padMarker pads short rows. */
    std::vector<Index> colInx;
};

/** Codec for ELL with a configurable minimum width (paper default 6). */
class EllCodec : public FormatCodec
{
  public:
    /** @param minWidth Compressed width floor (clamped to tile size). */
    explicit EllCodec(Index minWidth = 6);

    /** Why @p minWidth is rejected, or "": the constructor's check. */
    static std::string paramsViolation(Index minWidth);

    FormatKind kind() const override { return FormatKind::ELL; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    void decodeInto(const EncodedTile &encoded,
                    TileBuilder &tile) const override;

    Index minWidth() const { return wMin; }

    /** Width this codec would use for @p tile. */
    Index widthFor(const Tile &tile) const;

  private:
    Index wMin;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_ELL_FORMAT_HH
