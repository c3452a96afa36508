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
 * bandwidth-utilization metric is usefulBytes()/totalBytes(). Each
 * format states its memory streams once, in declareStreams(); the
 * per-wire sizes, the serialized payloads and every byte total are
 * views of that declaration (typed_stream.hh).
 */

#ifndef COPERNICUS_FORMATS_ENCODED_TILE_HH
#define COPERNICUS_FORMATS_ENCODED_TILE_HH

#include <span>
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
     * Declare every memory stream of this encoding once: its class,
     * name, first-stage wire, byte size and serialization.
     */
    virtual void declareStreams(StreamDeclarer &declare) const = 0;

    /** Per-wire byte sizes, without allocating or serializing. */
    WireBytes
    wireBytes() const
    {
        WireBytes sizes;
        StreamDeclarer declare(sizes);
        declareStreams(declare);
        return sizes;
    }

    /**
     * Byte count of each first-stage wire. The AXI transfer model
     * assigns wires to streamlines; the longest streamline defines
     * memory latency (Section 5.2, CSR discussion).
     */
    std::vector<Bytes>
    streams() const
    {
        const WireBytes sizes = wireBytes();
        const std::span<const Bytes> wires = sizes.wires();
        return std::vector<Bytes>(wires.begin(), wires.end());
    }

    /**
     * Hand every declared stream's payload to @p visit(cls, name,
     * wire, bytes), in declaration order (the visit view of
     * typed_stream.hh: arrays in place, images from the thread's
     * scratch buffer). Panics if a stream's writer emits a byte count
     * other than its declared size.
     */
    template <typename Visitor>
    void
    visitStreams(Visitor &&visit) const
    {
        StreamDeclarer declare(visit);
        declareStreams(declare);
    }

    /** A copy of every declared stream's payload, in declaration order. */
    std::vector<TypedStream>
    typedStreams() const
    {
        std::vector<TypedStream> payloads;
        visitStreams([&](StreamClass cls, const char *name, Wire wire,
                         std::span<const std::byte> bytes) {
            payloads.push_back(
                {cls, name, wire, {bytes.begin(), bytes.end()}});
        });
        return payloads;
    }

    /** Edge length p of the source tile. */
    Index tileSize() const { return p; }

    /** Non-zero count of the source tile. */
    Index nnz() const { return _nnz; }

    /** Payload bytes: the non-zero values. */
    Bytes usefulBytes() const { return Bytes(_nnz) * valueBytes; }

    /**
     * All bytes crossing the memory interface: the sum of the declared
     * sizes, recomputed on every call so it always reflects the arrays.
     */
    Bytes totalBytes() const { return wireBytes().total(); }

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
    COPERNICUS_PANIC_IF(
        encoded.kind() != expected,
        "encoded tile is " + std::string(formatName(encoded.kind())) +
        ", expected " + std::string(formatName(expected)));
    return static_cast<const ConcreteTile &>(encoded);
}

} // namespace copernicus

#endif // COPERNICUS_FORMATS_ENCODED_TILE_HH
