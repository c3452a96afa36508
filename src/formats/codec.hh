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
     * Reconstruct the tile.
     *
     * @param encoded Must have been produced by this codec's encode();
     *        a kind() mismatch is a panic, and so is an index array
     *        that places a value outside the tile or writes one cell
     *        twice.
     */
    virtual Tile decode(const EncodedTile &encoded) const = 0;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_CODEC_HH
