/**
 * @file
 * COO codec (Section 2, Figure 1d; decompression Listing 6).
 *
 * A flat series of (row, column, value) tuples. Two indices travel per
 * value, which pins the memory-bandwidth utilization at 1/3 regardless of
 * sparsity — the paper's "always 0.3" observation in Figures 10-12.
 */

#ifndef COPERNICUS_FORMATS_COO_FORMAT_HH
#define COPERNICUS_FORMATS_COO_FORMAT_HH

#include "formats/codec.hh"

namespace copernicus {

/** COO-encoded tile: parallel row/col/value arrays, row-major order. */
class CooEncoded : public EncodedTile
{
  public:
    CooEncoded(Index tileSize, Index nnz) : EncodedTile(tileSize, nnz) {}

    FormatKind kind() const override { return FormatKind::COO; }

    /**
     * The (row, col, value) tuples travel interleaved on one wire;
     * their payloads are the planar arrays (SoA).
     */
    void
    declareStreams(StreamDeclarer &declare) const override
    {
        declare.array(StreamClass::Value, "values", 0, values);
        declare.array(StreamClass::Index, "rowInx", 0, rowInx);
        declare.array(StreamClass::Index, "colInx", 0, colInx);
    }

    std::vector<Index> rowInx;
    std::vector<Index> colInx;
    std::vector<Value> values;
};

/** Codec for COO. */
class CooCodec : public FormatCodec
{
  public:
    FormatKind kind() const override { return FormatKind::COO; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    void decodeInto(const EncodedTile &encoded,
                    TileBuilder &tile) const override;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_COO_FORMAT_HH
