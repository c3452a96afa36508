/**
 * @file
 * CSC codec (Section 2; decompression Listing 3).
 *
 * Column-oriented mirror of CSR: offsets per column, row indices per
 * non-zero, values column-major. The paper keeps this format in the study
 * as the deliberate worst case of format/hardware orientation mismatch.
 */

#ifndef COPERNICUS_FORMATS_CSC_FORMAT_HH
#define COPERNICUS_FORMATS_CSC_FORMAT_HH

#include "formats/codec.hh"

namespace copernicus {

/** CSC-encoded tile. */
class CscEncoded : public EncodedTile
{
  public:
    CscEncoded(Index tileSize, Index nnz) : EncodedTile(tileSize, nnz) {}

    FormatKind kind() const override { return FormatKind::CSC; }

    void
    declareStreams(StreamDeclarer &declare) const override
    {
        declare.array(StreamClass::Value, "values", 0, values);
        declare.array(StreamClass::Index, "rowInx", 1, rowInx);
        declare.array(StreamClass::Offset, "offsets", 2, offsets);
    }

    /** Cumulative non-zero count through each column; length p. */
    std::vector<Index> offsets;

    /** Row index of each non-zero, column-major; length nnz. */
    std::vector<Index> rowInx;

    /** Non-zero values, column-major; length nnz. */
    std::vector<Value> values;

    /** Start position of @p col in rowInx/values. */
    Index
    colStart(Index col) const
    {
        return col == 0 ? 0 : offsets[col - 1];
    }

    /** One-past-the-end position of @p col in rowInx/values. */
    Index colEnd(Index col) const { return offsets[col]; }
};

/** Codec for CSC. */
class CscCodec : public FormatCodec
{
  public:
    FormatKind kind() const override { return FormatKind::CSC; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    void decodeInto(const EncodedTile &encoded,
                    TileBuilder &tile) const override;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_CSC_FORMAT_HH
