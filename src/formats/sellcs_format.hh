/**
 * @file
 * SELL-C-sigma codec (Section 2: "a variant of JDS that only sorts
 * rows within a window of sigma").
 *
 * Rows are sorted by descending non-zero count inside each
 * sigma-row window (the permutation is kept so decode can undo it),
 * then sliced ELL is applied with slice height C. Sorting packs rows
 * of similar length into the same slice, which trims SELL's padding
 * without JDS's global permutation cost.
 */

#ifndef COPERNICUS_FORMATS_SELLCS_FORMAT_HH
#define COPERNICUS_FORMATS_SELLCS_FORMAT_HH

#include <string>

#include "formats/codec.hh"
#include "formats/sell_format.hh"

namespace copernicus {

/** SELL-C-sigma-encoded tile. */
class SellCsEncoded : public EncodedTile
{
  public:
    /** Column-index value marking a padding slot. */
    static constexpr Index padMarker = ~Index(0);

    SellCsEncoded(Index tileSize, Index nnz, Index sliceHeight,
                  Index window)
        : EncodedTile(tileSize, nnz), c(sliceHeight), sigma(window)
    {}

    FormatKind kind() const override { return FormatKind::SELLCS; }

    /** The permutation rides with the column indices. */
    void
    declareStreams(StreamDeclarer &declare) const override
    {
        declareSliceStreams(declare, slices);
        declare.array(StreamClass::Index, "perm", 1, perm);
    }

    /** Slice height C. */
    Index sliceHeight() const { return c; }

    /** Sorting-window height sigma. */
    Index window() const { return sigma; }

    /** perm[k] = original row stored at sorted position k. */
    std::vector<Index> perm;

    /** ELL slices over the permuted rows (reuses SELL's slice type). */
    std::vector<SellSlice> slices;

  private:
    Index c;
    Index sigma;
};

/** Codec for SELL-C-sigma. */
class SellCsCodec : public FormatCodec
{
  public:
    /**
     * @param sliceHeight Slice height C; must divide the tile size.
     * @param window Sorting window sigma; must be a multiple of
     *        sliceHeight and divide the tile size.
     */
    explicit SellCsCodec(Index sliceHeight = 4, Index window = 8);

    /**
     * Why (@p sliceHeight, @p window) is rejected, or "": the
     * constructor's check.
     */
    static std::string paramsViolation(Index sliceHeight, Index window);

    FormatKind kind() const override { return FormatKind::SELLCS; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    void decodeInto(const EncodedTile &encoded,
                    TileBuilder &tile) const override;

    Index sliceHeight() const { return c; }
    Index window() const { return sigma; }

  private:
    Index c;
    Index sigma;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_SELLCS_FORMAT_HH
