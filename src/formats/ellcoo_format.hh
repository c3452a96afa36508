/**
 * @file
 * ELL+COO hybrid codec (Section 2's ELL+COO variant).
 *
 * The first `width` non-zeros of each row go into a fixed-width ELL
 * structure; anything beyond spills into a COO tuple list. This caps the
 * padding cost of pathologically long rows that plain ELL would have to
 * widen for.
 */

#ifndef COPERNICUS_FORMATS_ELLCOO_FORMAT_HH
#define COPERNICUS_FORMATS_ELLCOO_FORMAT_HH

#include <string>

#include "formats/codec.hh"

namespace copernicus {

/** ELL+COO-encoded tile. */
class EllCooEncoded : public EncodedTile
{
  public:
    /** Column-index value marking a padding slot. */
    static constexpr Index padMarker = ~Index(0);

    EllCooEncoded(Index tileSize, Index nnz, Index width)
        : EncodedTile(tileSize, nnz), w(width),
          values(static_cast<std::size_t>(tileSize) * width, Value(0)),
          colInx(static_cast<std::size_t>(tileSize) * width, padMarker)
    {}

    FormatKind kind() const override { return FormatKind::ELLCOO; }

    /** The ELL part and the COO overflow tuples ride one wire each. */
    void
    declareStreams(StreamDeclarer &declare) const override
    {
        declare.array(StreamClass::Value, "values", 0, values);
        declare.array(StreamClass::Index, "colInx", 0, colInx);
        declare.array(StreamClass::Value, "overflowValues", 1,
                      overflowValues);
        declare.array(StreamClass::Index, "overflowRows", 1,
                      overflowRows);
        declare.array(StreamClass::Index, "overflowCols", 1,
                      overflowCols);
    }

    /** Fixed ELL-part width. */
    Index width() const { return w; }

    Value &
    valueAt(Index row, Index slot)
    {
        return values[static_cast<std::size_t>(row) * w + slot];
    }

    Index &
    colAt(Index row, Index slot)
    {
        return colInx[static_cast<std::size_t>(row) * w + slot];
    }

    Value
    valueAt(Index row, Index slot) const
    {
        return values[static_cast<std::size_t>(row) * w + slot];
    }

    Index
    colAt(Index row, Index slot) const
    {
        return colInx[static_cast<std::size_t>(row) * w + slot];
    }

  private:
    Index w;

  public:
    /** ELL part. */
    std::vector<Value> values;
    std::vector<Index> colInx;

    /** COO overflow part. */
    std::vector<Index> overflowRows;
    std::vector<Index> overflowCols;
    std::vector<Value> overflowValues;
};

/** Codec for ELL+COO with configurable ELL width (default 2). */
class EllCooCodec : public FormatCodec
{
  public:
    /** @param width ELL-part width (clamped to the tile size). */
    explicit EllCooCodec(Index width = 2);

    /** Why @p width is rejected, or "": the constructor's check. */
    static std::string paramsViolation(Index width);

    FormatKind kind() const override { return FormatKind::ELLCOO; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    void decodeInto(const EncodedTile &encoded,
                    TileBuilder &tile) const override;

    Index width() const { return w; }

  private:
    Index w;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_ELLCOO_FORMAT_HH
