/**
 * @file
 * BCSR codec (Section 2, Figure 1c; decompression Listing 2).
 *
 * CSR over fixed b x b blocks (b = 4 throughout the paper): offsets count
 * the non-zero blocks per block-row, colInx stores the first column of
 * each non-zero block, and values stores each block flattened row-major —
 * including the zeros inside the block, which is the format's bandwidth
 * overhead.
 */

#ifndef COPERNICUS_FORMATS_BCSR_FORMAT_HH
#define COPERNICUS_FORMATS_BCSR_FORMAT_HH

#include <string>

#include "formats/codec.hh"

namespace copernicus {

/** BCSR-encoded tile. */
class BcsrEncoded : public EncodedTile
{
  public:
    BcsrEncoded(Index tileSize, Index nnz, Index blockSize)
        : EncodedTile(tileSize, nnz), block(blockSize)
    {}

    FormatKind kind() const override { return FormatKind::BCSR; }

    void
    declareStreams(StreamDeclarer &declare) const override
    {
        // values is the longest stream and defines the memory latency
        // (Listing 2 discussion).
        Bytes value_bytes = 0;
        for (const auto &blk : values)
            value_bytes += Bytes(blk.size()) * valueBytes;
        declare.image(StreamClass::Value, "values", 0, value_bytes,
                      [this](auto &out) {
                          for (const auto &blk : values)
                              appendScalarBytes(out, blk.data(),
                                                blk.size());
                      });
        declare.array(StreamClass::Index, "colInx", 1, colInx);
        declare.array(StreamClass::Offset, "offsets", 2, offsets);
    }

    /** Block edge length b. */
    Index blockSize() const { return block; }

    /** Cumulative non-zero-block count through each block-row. */
    std::vector<Index> offsets;

    /** First column of each non-zero block, block-row-major. */
    std::vector<Index> colInx;

    /** Flattened b*b values per non-zero block (zeros included). */
    std::vector<std::vector<Value>> values;

    /** Start block position of block-row @p brow. */
    Index
    blockRowStart(Index brow) const
    {
        return brow == 0 ? 0 : offsets[brow - 1];
    }

    /** One-past-the-end block position of block-row @p brow. */
    Index blockRowEnd(Index brow) const { return offsets[brow]; }

  private:
    Index block;
};

/** Codec for BCSR with a configurable block size (paper default 4). */
class BcsrCodec : public FormatCodec
{
  public:
    /** @param blockSize Block edge length b; must divide the tile size. */
    explicit BcsrCodec(Index blockSize = 4);

    /** Why @p blockSize is rejected, or "": the constructor's check. */
    static std::string paramsViolation(Index blockSize);

    FormatKind kind() const override { return FormatKind::BCSR; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    void decodeInto(const EncodedTile &encoded,
                    TileBuilder &tile) const override;

    Index blockSize() const { return block; }

  private:
    Index block;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_BCSR_FORMAT_HH
