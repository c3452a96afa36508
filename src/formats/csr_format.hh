/**
 * @file
 * CSR codec (Section 2, Figure 1b; decompression Listing 1).
 *
 * Three arrays: offsets (one entry per row, storing the cumulative
 * non-zero count through that row — the paper's "first element can store
 * absolute value" optimization, so offsets has length p rather than p+1),
 * column indices, and values.
 */

#ifndef COPERNICUS_FORMATS_CSR_FORMAT_HH
#define COPERNICUS_FORMATS_CSR_FORMAT_HH

#include "formats/codec.hh"

namespace copernicus {

/** CSR-encoded tile. */
class CsrEncoded : public EncodedTile
{
  public:
    CsrEncoded(Index tileSize, Index nnz) : EncodedTile(tileSize, nnz) {}

    FormatKind kind() const override { return FormatKind::CSR; }

    /**
     * Streams per Listing 1's discussion: offsets and column indices
     * travel on parallel streamlines with the values.
     */
    void
    declareStreams(StreamDeclarer &declare) const override
    {
        declare.array(StreamClass::Value, "values", 0, values);
        declare.array(StreamClass::Index, "colInx", 1, colInx);
        declare.array(StreamClass::Offset, "offsets", 2, offsets);
    }

    /** Cumulative non-zero count through each row; length p. */
    std::vector<Index> offsets;

    /** Column index of each non-zero, row-major; length nnz. */
    std::vector<Index> colInx;

    /** Non-zero values, row-major; length nnz. */
    std::vector<Value> values;

    /** Start position of @p row in colInx/values. */
    Index
    rowStart(Index row) const
    {
        return row == 0 ? 0 : offsets[row - 1];
    }

    /** One-past-the-end position of @p row in colInx/values. */
    Index rowEnd(Index row) const { return offsets[row]; }
};

/** Codec for CSR. */
class CsrCodec : public FormatCodec
{
  public:
    FormatKind kind() const override { return FormatKind::CSR; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    void decodeInto(const EncodedTile &encoded,
                    TileBuilder &tile) const override;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_CSR_FORMAT_HH
