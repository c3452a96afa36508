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
 *  - per-array payloads for second-stage compression (src/compress),
 *    which picks a codec per class because index, offset and value
 *    streams have very different statistics (Qin et al., PAPERS.md);
 *  - the byte totals behind bandwidth utilization.
 *
 * A StreamDeclarer offers two views of a declaration. The size view
 * sums the declared sizes per wire; it neither allocates nor
 * serializes. The visit view hands each stream's payload, the native
 * little-endian image of its array (the same bytes the DDR interface
 * would move), to a visitor as a byte span. A contiguous array is
 * visited in place, with no copy. Formats with non-contiguous storage
 * (DIA's headers, LIL's column lists, DOK's hash table) assemble a
 * deterministic canonical image in a writer; writers run only in the
 * visit view, into one scratch buffer per thread. A writer that emits
 * a byte count other than its declared size is a panic, so sizes and
 * payloads cannot drift apart. The span a visitor receives is valid
 * only during the call, and a visitor must not re-enter
 * declareStreams on its thread: the next image would overwrite the
 * scratch buffer under it.
 */

#ifndef COPERNICUS_FORMATS_TYPED_STREAM_HH
#define COPERNICUS_FORMATS_TYPED_STREAM_HH

#include <array>
#include <concepts>
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

/** A copy of one memory stream of an encoded tile (typedStreams()). */
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
 * their sizes per wire (size view) or handing each stream's payload to
 * a visitor (visit view); see the file comment.
 */
class StreamDeclarer
{
  public:
    /** Size view: add each declared size to its wire in @p out. */
    explicit StreamDeclarer(WireBytes &out) : sizes(&out) {}

    /**
     * Visit view: call @p visit(cls, name, wire, bytes) once per
     * stream, in declaration order, with the serialized payload.
     */
    template <typename Visitor>
        requires std::invocable<Visitor &, StreamClass, const char *,
                                Wire, std::span<const std::byte>>
    explicit StreamDeclarer(Visitor &visit)
        : visitor(&visit),
          call([](void *target, StreamClass cls, const char *name,
                  Wire wire, std::span<const std::byte> bytes) {
              (*static_cast<Visitor *>(target))(cls, name, wire, bytes);
          })
    {}

    /** Declare a contiguous scalar array, visited in place. */
    template <typename Range>
    void
    array(StreamClass cls, const char *name, Wire wire,
          const Range &range)
    {
        const auto elements = std::span(std::data(range), std::size(range));
        static_assert(std::is_trivially_copyable_v<
                      typename decltype(elements)::element_type>);
        const std::span<const std::byte> bytes = std::as_bytes(elements);
        if (sizes != nullptr) {
            sizes->add(wire, Bytes(bytes.size()));
            return;
        }
        call(visitor, cls, name, wire, bytes);
    }

    /**
     * Declare an assembled image of @p size bytes. @p write appends
     * the image to the vector it is given; it runs only in the visit
     * view and must append exactly @p size bytes.
     */
    template <typename Writer>
    void
    image(StreamClass cls, const char *name, Wire wire, Bytes size,
          Writer &&write)
    {
        if (sizes != nullptr) {
            sizes->add(wire, size);
            return;
        }
        std::vector<std::byte> &scratch = imageScratch(size);
        write(scratch);
        checkImage(name, size, scratch);
        call(visitor, cls, name, wire, scratch);
    }

  private:
    /** This thread's image buffer, emptied, with room for @p size. */
    static std::vector<std::byte> &imageScratch(Bytes size);

    /** Panic unless @p image holds exactly @p declared bytes. */
    static void checkImage(const char *name, Bytes declared,
                           const std::vector<std::byte> &image);

    WireBytes *sizes = nullptr;
    void *visitor = nullptr;
    void (*call)(void *, StreamClass, const char *, Wire,
                 std::span<const std::byte>) = nullptr;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_TYPED_STREAM_HH
