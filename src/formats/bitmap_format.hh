/**
 * @file
 * Bitmap codec: the bitmask representation used by recent sparse DSAs
 * (SparTen's SparseMap, SMASH's hierarchical bitmaps — the paper's
 * Related Work), implemented here as an extension format.
 *
 * The tile ships as a p*p occupancy bitmap (one bit per cell,
 * row-major, packed into 64-bit words) plus the dense array of
 * non-zero values in row-major order. Metadata is a fixed p*p/8 bytes
 * regardless of sparsity, so bandwidth utilization beats index-based
 * formats once a tile holds more than a handful of non-zeros.
 */

#ifndef COPERNICUS_FORMATS_BITMAP_FORMAT_HH
#define COPERNICUS_FORMATS_BITMAP_FORMAT_HH

#include <cstdint>

#include "formats/codec.hh"

namespace copernicus {

/** Bitmap-encoded tile. */
class BitmapEncoded : public EncodedTile
{
  public:
    BitmapEncoded(Index tileSize, Index nnz)
        : EncodedTile(tileSize, nnz),
          mask((static_cast<std::size_t>(tileSize) * tileSize + 63) /
               64, 0)
    {}

    FormatKind kind() const override { return FormatKind::BITMAP; }

    void
    declareStreams(StreamDeclarer &declare) const override
    {
        declare.array(StreamClass::Value, "values", 0, values);
        // The wire image is the packed p*p bits, not the backing
        // words: truncate the tail padding the words add.
        const Bytes mask_bytes = (Bytes(p) * p + 7) / 8;
        declare.image(StreamClass::Index, "mask", 1, mask_bytes,
                      [&](auto &out) {
                          appendScalarBytes(out, mask.data(),
                                            mask.size());
                          out.resize(mask_bytes);
                      });
    }

    /** True iff cell (row, col) is occupied. */
    bool
    test(Index row, Index col) const
    {
        const std::size_t bit = static_cast<std::size_t>(row) * p + col;
        return (mask[bit / 64] >> (bit % 64)) & 1;
    }

    /** Mark cell (row, col) occupied. */
    void
    set(Index row, Index col)
    {
        const std::size_t bit = static_cast<std::size_t>(row) * p + col;
        mask[bit / 64] |= std::uint64_t(1) << (bit % 64);
    }

    /** Occupancy bits, row-major, packed little-endian into words. */
    std::vector<std::uint64_t> mask;

    /** Non-zero values in row-major order. */
    std::vector<Value> values;
};

/** Codec for the bitmap format. */
class BitmapCodec : public FormatCodec
{
  public:
    FormatKind kind() const override { return FormatKind::BITMAP; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    void decodeInto(const EncodedTile &encoded,
                    TileBuilder &tile) const override;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_BITMAP_FORMAT_HH
