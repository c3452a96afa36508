/**
 * @file
 * DOK codec (Section 2, Figure 1e).
 *
 * Dictionary of keys: coordinate/value pairs stored in a hash table keyed
 * by (row, col). The wire image is the same tuple series as COO (the paper
 * notes DOK follows the same decompression procedure); the hash structure
 * matters on-chip, where the decompressor pays a hashing step per tuple.
 */

#ifndef COPERNICUS_FORMATS_DOK_FORMAT_HH
#define COPERNICUS_FORMATS_DOK_FORMAT_HH

#include <unordered_map>

#include "formats/codec.hh"

namespace copernicus {

/** DOK-encoded tile: hash of packed (row, col) key to value. */
class DokEncoded : public EncodedTile
{
  public:
    DokEncoded(Index tileSize, Index nnz) : EncodedTile(tileSize, nnz) {}

    FormatKind kind() const override { return FormatKind::DOK; }

    /**
     * COO's wire image, one interleaved wire, in sorted (row, col)
     * order — the hash table's iteration order is not deterministic,
     * the serialized streams must be.
     */
    void declareStreams(StreamDeclarer &declare) const override;

    /** Pack (row, col) into one hash key. */
    static std::uint64_t
    key(Index row, Index col)
    {
        return (static_cast<std::uint64_t>(row) << 32) | col;
    }

    std::unordered_map<std::uint64_t, Value> table;
};

/** Codec for DOK. */
class DokCodec : public FormatCodec
{
  public:
    FormatKind kind() const override { return FormatKind::DOK; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    void decodeInto(const EncodedTile &encoded,
                    TileBuilder &tile) const override;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_DOK_FORMAT_HH
