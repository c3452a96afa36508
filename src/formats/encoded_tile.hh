/**
 * @file
 * EncodedTile: a tile compressed in one particular format.
 *
 * The encoded representation keeps the real arrays (values, indices,
 * offsets, ...) so that (a) decode() can reconstruct the tile exactly and
 * (b) the HLS decompressor models in src/hls can walk the same data the
 * hardware would, making their cycle counts data-dependent.
 *
 * Byte accounting follows Section 4.2: "useful" bytes are the non-zero
 * values; everything else that crosses the memory interface — indices,
 * offsets, headers, and padding or in-block zeros — is overhead. The
 * bandwidth-utilization metric is usefulBytes()/totalBytes().
 */

#ifndef COPERNICUS_FORMATS_ENCODED_TILE_HH
#define COPERNICUS_FORMATS_ENCODED_TILE_HH

#include <string>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"
#include "formats/format_kind.hh"
#include "formats/typed_stream.hh"

namespace copernicus {

/**
 * Base class for per-format encoded tiles.
 *
 * Concrete subclasses live next to their codec (CsrEncoded in
 * csr_format.hh, and so on).
 */
class EncodedTile
{
  public:
    /**
     * @param tileSize Edge length p of the source tile.
     * @param nnz Non-zero count of the source tile.
     */
    EncodedTile(Index tileSize, Index nnz) : p(tileSize), _nnz(nnz) {}

    virtual ~EncodedTile() = default;

    EncodedTile(const EncodedTile &) = default;

    EncodedTile &operator=(const EncodedTile &) = delete;

    /** Format this tile is encoded in. */
    virtual FormatKind kind() const = 0;

    /**
     * Byte count of each memory stream of this encoding.
     *
     * The AXI transfer model assigns streams to the available
     * streamlines; the longest streamline defines memory latency
     * (Section 5.2, CSR discussion).
     */
    virtual std::vector<Bytes> streams() const = 0;

    /**
     * The same bytes as streams(), split into labeled, classed,
     * serialized payloads for second-stage compression (see
     * typed_stream.hh). Implementations must cover the streams()
     * total exactly; copernicus_lint's `streams` pass and the tier-1
     * tests enforce it.
     */
    virtual std::vector<TypedStream> typedStreams() const = 0;

    /** Edge length p of the source tile. */
    Index tileSize() const { return p; }

    /** Non-zero count of the source tile. */
    Index nnz() const { return _nnz; }

    /** Payload bytes: the non-zero values. */
    Bytes usefulBytes() const { return Bytes(_nnz) * valueBytes; }

    /**
     * All bytes crossing the memory interface: the sum of streams(),
     * recomputed on every call so it always reflects the arrays.
     */
    Bytes
    totalBytes() const
    {
        Bytes total = 0;
        for (Bytes s : streams())
            total += s;
        return total;
    }

    /** Overhead bytes: metadata, headers, padding, in-block zeros. */
    Bytes metadataBytes() const { return totalBytes() - usefulBytes(); }

    /** usefulBytes()/totalBytes(); 0 for an empty encoding. */
    double
    bandwidthUtilization() const
    {
        const Bytes total = totalBytes();
        return total == 0
                   ? 0.0
                   : static_cast<double>(usefulBytes()) / total;
    }

  protected:
    Index p;
    Index _nnz;
};

/**
 * Checked downcast to a concrete encoded-tile type.
 *
 * @param encoded The generic encoded tile.
 * @param expected The kind ConcreteTile represents; mismatch is a panic.
 */
template <typename ConcreteTile>
const ConcreteTile &
encodedAs(const EncodedTile &encoded, FormatKind expected)
{
    panicIf(encoded.kind() != expected,
            "encoded tile is " + std::string(formatName(encoded.kind())) +
            ", expected " + std::string(formatName(expected)));
    return static_cast<const ConcreteTile &>(encoded);
}

} // namespace copernicus

#endif // COPERNICUS_FORMATS_ENCODED_TILE_HH
