#include "compress/second_stage.hh"

#include <atomic>
#include <chrono>
#include <cstring>

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
 * Compress @p raw with @p compressor and verify the roundtrip into
 * arena scratch. Returns false (candidate discarded) if the image is
 * malformed or fails the byte comparison.
 */
bool
tryCandidate(const StreamCompressor &compressor,
             std::span<const std::byte> raw, std::vector<std::byte> &out)
{
    out.clear();
    compressor.compress(raw, out);
    Arena &arena = encodeArena();
    const ArenaScope scope(arena);
    std::byte *check = arena.alloc<std::byte>(raw.size());
    if (!compressor.decompress(out, {check, raw.size()}))
        return false;
    return raw.empty() ||
           std::memcmp(check, raw.data(), raw.size()) == 0;
}

} // namespace

SecondStageChoice
CompressionPolicy::forClass(StreamClass cls) const
{
    switch (cls) {
    case StreamClass::Value:
        return value;
    case StreamClass::Index:
        return index;
    case StreamClass::Offset:
        return offset;
    }
    return SecondStageChoice::Store;
}

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
compressTile(const EncodedTile &tile, const CompressionPolicy &policy,
             bool keepPayloads)
{
    const auto start = std::chrono::steady_clock::now();

    const std::vector<TypedStream> typed = tile.typedStreams();
    TileCompression result;
    result.streams.reserve(typed.size());

    std::vector<std::byte> candidate;
    std::vector<std::byte> best;
    for (const TypedStream &stream : typed) {
        CompressedStream out;
        out.cls = stream.cls;
        out.name = stream.name;
        out.wire = stream.wire;
        out.rawBytes = stream.size();
        out.family = CompressionFamily::Store;
        out.payloadBytes = out.rawBytes;

        const SecondStageChoice choice = policy.forClass(stream.cls);
        const bool tryLz4 = choice == SecondStageChoice::Auto ||
                            choice == SecondStageChoice::Lz4;
        const bool tryLzf = choice == SecondStageChoice::Auto ||
                            choice == SecondStageChoice::Lzf;

        best.clear();
        // A candidate wins only if it beats the current stored size —
        // which starts at the STORE cost, so compression that loses
        // (after the container header) is rejected by construction.
        for (const StreamCompressor *compressor :
             {tryLz4 ? &lz4Compressor() : nullptr,
              tryLzf ? &lzfCompressor() : nullptr}) {
            if (compressor == nullptr)
                continue;
            if (!tryCandidate(*compressor, stream.bytes, candidate))
                continue;
            if (Bytes(candidate.size()) + streamHeaderBytes <
                out.storedBytes()) {
                out.family = compressor->family();
                out.payloadBytes = Bytes(candidate.size());
                best.swap(candidate);
            }
        }
        if (keepPayloads)
            out.payload = out.family == CompressionFamily::Store
                              ? stream.bytes
                              : best;
        result.streams.push_back(std::move(out));
    }

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
