/**
 * @file
 * Second-stage stream compression: per-stream codec selection over an
 * encoded tile's typed streams.
 *
 * Copernicus charges every byte crossing the memory interface against
 * bandwidth utilization (Section 4.2). The first stage is the sparse
 * format itself; this module adds the optional second stage: each
 * typed stream (typed_stream.hh) is byte-compressed before the DDR
 * transfer model sees it. Index, offset and value streams have very
 * different statistics — offsets are near-monotone and highly
 * repetitive, indices are small-alphabet, values are mostly
 * incompressible floats — so the codec is chosen *per stream* (SMASH
 * and Qin et al., PAPERS.md): every stream tries LZ4 and LZF and
 * keeps the smaller, with a STORE passthrough whenever compression
 * loses.
 *
 * Streams are read in place through the declaration's visit view, and
 * each codec compresses into a per-thread buffer, so a tile costs what
 * its encoders cost: no copy of a payload, and no allocation beyond
 * the result's stream list (and the images kept on request). Only the
 * selected image is roundtrip-verified; an image that fails is never
 * selected.
 *
 * Accounting contract: a STORE stream ships the raw serialized bytes
 * unchanged, so storedBytes() <= rawBytes() always, and disabling the
 * second stage prices like a tile whose streams all select STORE:
 * stored sizes are summed per first-stage wire, so an all-STORE tile
 * presents the AXI model the same wires as the uncompressed one.
 * Compressed streams pay a fixed per-stream container header (family
 * + raw size) so the model never undercounts framing.
 */

#ifndef COPERNICUS_COMPRESS_SECOND_STAGE_HH
#define COPERNICUS_COMPRESS_SECOND_STAGE_HH

#include <cstdint>
#include <vector>

#include "common/types.hh"
#include "compress/stream_compressor.hh"
#include "formats/encoded_tile.hh"
#include "formats/typed_stream.hh"

namespace copernicus {

/**
 * Fixed container header charged to every non-STORE stream: one
 * family byte plus the 32-bit raw size the decoder needs.
 */
constexpr Bytes streamHeaderBytes = 5;

/** One stream after second-stage selection. */
struct CompressedStream
{
    StreamClass cls = StreamClass::Value;
    const char *name = "";
    Wire wire = 0;
    CompressionFamily family = CompressionFamily::Store;

    /** Serialized (pre-compression) payload size. */
    Bytes rawBytes = 0;

    /** Compressed payload size (== rawBytes for STORE). */
    Bytes payloadBytes = 0;

    /**
     * Bytes that cross the memory interface: the payload plus the
     * container header for compressed streams; exactly the raw bytes
     * for STORE.
     */
    Bytes
    storedBytes() const
    {
        return family == CompressionFamily::Store
                   ? rawBytes
                   : payloadBytes + streamHeaderBytes;
    }

    /** Compressed image; kept only when requested (tests, benches). */
    std::vector<std::byte> payload;
};

/** Second-stage result for one encoded tile. */
struct TileCompression
{
    std::vector<CompressedStream> streams;

    Bytes rawBytes() const;
    Bytes storedBytes() const;

    /** Stored sizes summed per first-stage wire, for the AXI model. */
    WireBytes storedWireBytes() const;

    /** storedWireBytes() as one entry per wire. */
    std::vector<Bytes> storedStreamBytes() const;
};

/**
 * Run second-stage selection over @p tile's typed streams.
 *
 * Per stream, LZ4 and LZF each compress the payload; the images whose
 * stored size (payload plus container header) is below the raw size
 * are ordered by size, LZ4 first on a tie. The
 * selected image is roundtrip-verified (decompressed and
 * byte-compared against the raw payload) and an image that fails is
 * never selected: the next one is verified instead, and STORE is the
 * result when none passes. The outcome is the smallest verified
 * image that beats STORE. With @p keepPayloads the selected images
 * are retained on the result for inspection.
 */
TileCompression compressTile(const EncodedTile &tile,
                             bool keepPayloads = false);

/** Monotonic process-wide second-stage counters (wide events). */
struct CompressTotals
{
    std::uint64_t streams = 0;
    std::uint64_t rawBytes = 0;
    std::uint64_t storedBytes = 0;
    std::uint64_t nanos = 0;
};

/** Snapshot of the counters compressTile() maintains. */
CompressTotals compressTotals();

} // namespace copernicus

#endif // COPERNICUS_COMPRESS_SECOND_STAGE_HH
