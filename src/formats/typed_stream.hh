/**
 * @file
 * Stream declarations: the one statement of an encoded tile's memory
 * streams.
 *
 * Every format declares each memory stream of its encoding once
 * (EncodedTile::declareStreams): a coarse class, a static name, the
 * first-stage AXI wire it rides, its byte size, and how to serialize
 * it. Everything that counts or moves those bytes derives from that
 * declaration:
 *
 *  - per-wire sizes (WireBytes) for the AXI transfer model, which
 *    assigns wires to streamlines; "the longer streamline defines the
 *    latency of memory access" (Section 4.2). Several arrays may ride
 *    one wire: COO's (row, col, value) tuples travel interleaved, and
 *    JDS's perm rides with its jdPtr;
 *  - per-array payloads (TypedStream) for second-stage compression
 *    (src/compress), which picks a codec per class because index,
 *    offset and value streams have very different statistics (Qin et
 *    al., PAPERS.md);
 *  - the byte totals behind bandwidth utilization.
 *
 * Sizes are declared up front, so the size view neither allocates nor
 * serializes. A payload is the native little-endian image of its
 * array (the same bytes the DDR interface would move); formats with
 * non-contiguous storage (DIA's headers, LIL's column lists, DOK's
 * hash table) assemble a deterministic canonical image in a writer
 * that runs only when payloads are collected. A writer that emits a
 * byte count other than its declared size is a panic, so sizes and
 * payloads cannot drift apart.
 */

#ifndef COPERNICUS_FORMATS_TYPED_STREAM_HH
#define COPERNICUS_FORMATS_TYPED_STREAM_HH

#include <array>
#include <cstddef>
#include <cstring>
#include <span>
#include <type_traits>
#include <vector>

#include "common/types.hh"

namespace copernicus {

/** Coarse stream taxonomy for per-class compressor selection. */
enum class StreamClass : std::uint8_t
{
    Value,  ///< non-zero payload words (and in-block/padding zeros)
    Index,  ///< per-entry coordinates: column/row indices, masks, perms
    Offset, ///< structural headers: prefix sums, widths, diagonal numbers
};

/** Human-readable class label ("value", "index", "offset"). */
const char *streamClassName(StreamClass cls);

/** First-stage AXI wire a stream rides; wires number from 0. */
using Wire = std::uint8_t;

/**
 * Most wires one partition read carries: three for the widest formats
 * (CSR, CSC, BCSR, JDS) plus the vector operand segment that
 * timePartition adds under `streamVectorOperand`.
 */
inline constexpr std::size_t maxWires = 4;

/** Byte count of each wire of one partition read. */
class WireBytes
{
  public:
    /** Add @p bytes to @p wire; a wire past maxWires is a panic. */
    void add(Wire wire, Bytes bytes);

    /** One entry per wire up to the highest one added, wire 0 first. */
    std::span<const Bytes> wires() const { return {sizes.data(), count}; }

    /** Sum over all wires. */
    Bytes total() const;

  private:
    std::array<Bytes, maxWires> sizes{};
    std::size_t count = 0;
};

/** One serialized memory stream of an encoded tile. */
struct TypedStream
{
    StreamClass cls = StreamClass::Value;

    /** Static label, e.g. "values", "colInx" (never owned). */
    const char *name = "";

    /** First-stage wire the stream rides. */
    Wire wire = 0;

    /** Serialized payload, canonical order, native byte order. */
    std::vector<std::byte> bytes;

    Bytes size() const { return Bytes(bytes.size()); }
};

/** Append the raw bytes of @p count scalars at @p data to @p out. */
template <typename T>
inline void
appendScalarBytes(std::vector<std::byte> &out, const T *data,
                  std::size_t count)
{
    static_assert(std::is_trivially_copyable_v<T>);
    const std::size_t at = out.size();
    out.resize(at + count * sizeof(T));
    if (count != 0)
        std::memcpy(out.data() + at, data, count * sizeof(T));
}

/**
 * Receives one encoded tile's stream declarations, either summing
 * their sizes per wire or collecting their serialized payloads.
 */
class StreamDeclarer
{
  public:
    /** Size view: add each declared size to its wire in @p out. */
    explicit StreamDeclarer(WireBytes &out) : sizes(&out) {}

    /** Payload view: append one serialized stream per declaration. */
    explicit StreamDeclarer(std::vector<TypedStream> &out)
        : payloads(&out)
    {}

    /** Declare a contiguous scalar array, serialized as-is. */
    template <typename Range>
    void
    array(StreamClass cls, const char *name, Wire wire,
          const Range &range)
    {
        const auto *data = std::data(range);
        const std::size_t count = std::size(range);
        image(cls, name, wire, Bytes(count) * sizeof(*data),
              [&](std::vector<std::byte> &out) {
                  appendScalarBytes(out, data, count);
              });
    }

    /**
     * Declare an assembled image of @p size bytes. @p write appends
     * the image to the vector it is given; it runs only in the
     * payload view and must append exactly @p size bytes.
     */
    template <typename Writer>
    void
    image(StreamClass cls, const char *name, Wire wire, Bytes size,
          Writer &&write)
    {
        if (payloads == nullptr) {
            sizes->add(wire, size);
            return;
        }
        TypedStream &stream = begin(cls, name, wire, size);
        write(stream.bytes);
        finish(stream, size);
    }

  private:
    TypedStream &begin(StreamClass cls, const char *name, Wire wire,
                       Bytes size);

    /** Panic unless @p stream serialized exactly @p declared bytes. */
    static void finish(const TypedStream &stream, Bytes declared);

    WireBytes *sizes = nullptr;
    std::vector<TypedStream> *payloads = nullptr;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_TYPED_STREAM_HH
