/**
 * @file
 * FormatCodec: encode/decode interface implemented once per format.
 */

#ifndef COPERNICUS_FORMATS_CODEC_HH
#define COPERNICUS_FORMATS_CODEC_HH

#include <memory>
#include <string_view>

#include "formats/encoded_tile.hh"
#include "matrix/tile.hh"

namespace copernicus {

/**
 * Lossless tile compressor/decompressor for one format.
 *
 * Invariant checked by the test suite for every codec:
 * decode(*encode(tile)) == tile for any tile, including all-zero ones.
 */
class FormatCodec
{
  public:
    virtual ~FormatCodec() = default;

    /** The format this codec implements. */
    virtual FormatKind kind() const = 0;

    /** Printable name, same as formatName(kind()). */
    std::string_view name() const { return formatName(kind()); }

    /** Compress @p tile. Never fails: every tile is representable. */
    virtual std::unique_ptr<EncodedTile> encode(const Tile &tile) const = 0;

    /**
     * Replay @p encoded's arrays into @p out, the one decoder each
     * codec implements: @p out is reset to the encoded tile's size,
     * then receives every stored element through TileBuilder::set()
     * or, for a run of cells in one row, TileBuilder::setRun().
     * A caller that only checks the result against a known tile calls
     * TileBuilder::matches() and never builds a Tile.
     *
     * @param encoded Must have been produced by this codec's encode();
     *        a kind() mismatch is a panic, and so is an index array
     *        that places a value outside the tile. A cell written
     *        twice is a panic when @p out is built or matched.
     */
    virtual void decodeInto(const EncodedTile &encoded,
                            TileBuilder &out) const = 0;

    /** Reconstruct the tile: decodeInto() a fresh builder, built. */
    Tile
    decode(const EncodedTile &encoded) const
    {
        TileBuilder out(encoded.tileSize());
        decodeInto(encoded, out);
        return out.build();
    }
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_CODEC_HH
