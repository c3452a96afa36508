/**
 * @file
 * Sliced ELL codec (Section 2's SELL variant).
 *
 * The tile is cut row-wise into slices of fixed height C; ELL is applied
 * per slice with the slice's own width, which trims the padding a single
 * global width would force. One width header per slice is the extra
 * metadata.
 */

#ifndef COPERNICUS_FORMATS_SELL_FORMAT_HH
#define COPERNICUS_FORMATS_SELL_FORMAT_HH

#include <string>

#include "formats/codec.hh"

namespace copernicus {

/** One ELL slice of a SELL encoding. */
struct SellSlice
{
    /** Compressed width of this slice (its longest row). */
    Index width = 0;

    /** sliceHeight x width values, rows pushed left, zero-padded. */
    std::vector<Value> values;

    /** sliceHeight x width column indices; padMarker pads. */
    std::vector<Index> colInx;
};

/**
 * Declare the streams of @p slices (SELL and SELL-C-sigma): the values
 * on wire 0; the column indices and one width header per slice on
 * wire 1.
 */
void declareSliceStreams(StreamDeclarer &declare,
                         const std::vector<SellSlice> &slices);

/** SELL-encoded tile. */
class SellEncoded : public EncodedTile
{
  public:
    /** Column-index value marking a padding slot. */
    static constexpr Index padMarker = ~Index(0);

    SellEncoded(Index tileSize, Index nnz, Index sliceHeight)
        : EncodedTile(tileSize, nnz), c(sliceHeight)
    {}

    FormatKind kind() const override { return FormatKind::SELL; }

    void
    declareStreams(StreamDeclarer &declare) const override
    {
        declareSliceStreams(declare, slices);
    }

    /** Slice height C. */
    Index sliceHeight() const { return c; }

    std::vector<SellSlice> slices;

  private:
    Index c;
};

/** Codec for SELL with configurable slice height (default 4). */
class SellCodec : public FormatCodec
{
  public:
    /** @param sliceHeight Slice height C; must divide the tile size. */
    explicit SellCodec(Index sliceHeight = 4);

    /** Why @p sliceHeight is rejected, or "": the constructor's check. */
    static std::string paramsViolation(Index sliceHeight);

    FormatKind kind() const override { return FormatKind::SELL; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    void decodeInto(const EncodedTile &encoded,
                    TileBuilder &tile) const override;

    Index sliceHeight() const { return c; }

  private:
    Index c;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_SELL_FORMAT_HH
