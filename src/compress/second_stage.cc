#include "compress/second_stage.hh"

#include <array>
#include <atomic>
#include <chrono>
#include <cstring>
#include <utility>

#include "common/arena.hh"

namespace copernicus {

namespace {

struct Counters
{
    std::atomic<std::uint64_t> streams{0};
    std::atomic<std::uint64_t> rawBytes{0};
    std::atomic<std::uint64_t> storedBytes{0};
    std::atomic<std::uint64_t> nanos{0};
};

Counters &
counters()
{
    static Counters c;
    return c;
}

/**
 * True when @p image decompresses with @p codec to exactly @p raw
 * (never empty: only images that beat STORE are verified); the check
 * is decoded into arena scratch.
 */
bool
roundtrips(const StreamCompressor &codec, std::span<const std::byte> image,
           std::span<const std::byte> raw)
{
    Arena &arena = encodeArena();
    const ArenaScope scope(arena);
    std::byte *check = arena.alloc<std::byte>(raw.size());
    return codec.decompress(image, {check, raw.size()}) &&
           std::memcmp(check, raw.data(), raw.size()) == 0;
}

/** One codec's image of a stream, held in a per-thread buffer. */
struct Candidate
{
    const StreamCompressor *codec = nullptr;
    const std::vector<std::byte> *image = nullptr;
};

/**
 * Select the stored form of one stream: the smaller of the LZ4 and
 * LZF images that beats STORE after the container header and
 * decompresses back to @p raw, LZ4 first on a tie; STORE if there is
 * none. Images are ordered by size first and only the selected one
 * is verified, so losing candidates pay no decompress.
 */
CompressedStream
compressStream(StreamClass cls, const char *name, Wire wire,
               std::span<const std::byte> raw, bool keepPayloads)
{
    CompressedStream out;
    out.cls = cls;
    out.name = name;
    out.wire = wire;
    out.rawBytes = Bytes(raw.size());
    out.family = CompressionFamily::Store;
    out.payloadBytes = out.rawBytes;

    thread_local std::vector<std::byte> lz4Image;
    thread_local std::vector<std::byte> lzfImage;
    std::array<Candidate, 2> candidates;
    std::size_t count = 0;
    const auto consider = [&](const StreamCompressor &codec,
                              std::vector<std::byte> &image) {
        image.clear();
        codec.compress(raw, image);
        if (Bytes(image.size()) + streamHeaderBytes < out.rawBytes)
            candidates[count++] = {&codec, &image};
    };
    consider(lz4Compressor(), lz4Image);
    consider(lzfCompressor(), lzfImage);
    if (count == 2 &&
        candidates[1].image->size() < candidates[0].image->size())
        std::swap(candidates[0], candidates[1]);

    for (std::size_t k = 0; k < count; ++k) {
        const Candidate &candidate = candidates[k];
        if (!roundtrips(*candidate.codec, *candidate.image, raw))
            continue;
        out.family = candidate.codec->family();
        out.payloadBytes = Bytes(candidate.image->size());
        if (keepPayloads)
            out.payload = *candidate.image;
        return out;
    }
    if (keepPayloads)
        out.payload.assign(raw.begin(), raw.end());
    return out;
}

} // namespace

Bytes
TileCompression::rawBytes() const
{
    Bytes total = 0;
    for (const CompressedStream &s : streams)
        total += s.rawBytes;
    return total;
}

Bytes
TileCompression::storedBytes() const
{
    Bytes total = 0;
    for (const CompressedStream &s : streams)
        total += s.storedBytes();
    return total;
}

WireBytes
TileCompression::storedWireBytes() const
{
    WireBytes sizes;
    for (const CompressedStream &s : streams)
        sizes.add(s.wire, s.storedBytes());
    return sizes;
}

std::vector<Bytes>
TileCompression::storedStreamBytes() const
{
    const WireBytes sizes = storedWireBytes();
    const std::span<const Bytes> wires = sizes.wires();
    return std::vector<Bytes>(wires.begin(), wires.end());
}

TileCompression
compressTile(const EncodedTile &tile, bool keepPayloads)
{
    const auto start = std::chrono::steady_clock::now();

    TileCompression result;
    // No format declares more than five streams (ELL+COO's).
    result.streams.reserve(5);
    tile.visitStreams([&](StreamClass cls, const char *name, Wire wire,
                          std::span<const std::byte> raw) {
        result.streams.push_back(
            compressStream(cls, name, wire, raw, keepPayloads));
    });

    const auto elapsed = std::chrono::steady_clock::now() - start;
    Counters &c = counters();
    c.streams.fetch_add(result.streams.size(),
                        std::memory_order_relaxed);
    c.rawBytes.fetch_add(result.rawBytes(), std::memory_order_relaxed);
    c.storedBytes.fetch_add(result.storedBytes(),
                            std::memory_order_relaxed);
    c.nanos.fetch_add(
        std::chrono::duration_cast<std::chrono::nanoseconds>(elapsed)
            .count(),
        std::memory_order_relaxed);
    return result;
}

CompressTotals
compressTotals()
{
    const Counters &c = counters();
    CompressTotals t;
    t.streams = c.streams.load(std::memory_order_relaxed);
    t.rawBytes = c.rawBytes.load(std::memory_order_relaxed);
    t.storedBytes = c.storedBytes.load(std::memory_order_relaxed);
    t.nanos = c.nanos.load(std::memory_order_relaxed);
    return t;
}

} // namespace copernicus
