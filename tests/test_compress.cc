/**
 * @file
 * Second-stage compressor tests: exact roundtrip fuzzing for both
 * block families across random, structured, catalog-derived and
 * adversarial inputs, decoder robustness on malformed images, the
 * encoders' images (pinned by hash) and the bound they write within,
 * and the compressTile() selection/accounting contract, checked
 * against an exhaustive reference.
 *
 * The fuzz bodies are deterministic (fixed Rng seeds) and also run
 * under the sanitizer builds — the tsan label puts them in the
 * concurrency lane, and the asan/ubsan CI jobs run the whole suite —
 * so decoder bounds handling is exercised with full instrumentation.
 */

#include <algorithm>
#include <array>
#include <cstring>
#include <numeric>
#include <string>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/fnv.hh"
#include "common/rng.hh"
#include "compress/second_stage.hh"
#include "compress/stream_compressor.hh"
#include "formats/registry.hh"
#include "matrix/partitioner.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

std::vector<const StreamCompressor *>
families()
{
    return {&lz4Compressor(), &lzfCompressor()};
}

/** Compress, decompress, and require byte-exact recovery. */
void
expectRoundtrip(const StreamCompressor &compressor,
                const std::vector<std::byte> &input)
{
    std::vector<std::byte> compressed;
    const std::size_t written = compressor.compress(input, compressed);
    EXPECT_EQ(written, compressed.size());

    std::vector<std::byte> output(input.size(), std::byte(0x5C));
    ASSERT_TRUE(compressor.decompress(compressed, output))
        << "family " << compressionFamilyName(compressor.family())
        << " rejected its own image (input " << input.size()
        << " bytes)";
    if (!input.empty()) {
        EXPECT_EQ(0, std::memcmp(output.data(), input.data(),
                                 input.size()))
            << "family "
            << compressionFamilyName(compressor.family())
            << " corrupted a " << input.size() << "-byte input";
    }
}

std::vector<std::byte>
randomBytes(std::size_t n, Rng &rng)
{
    std::vector<std::byte> out(n);
    for (auto &b : out)
        b = std::byte(rng() & 0xff);
    return out;
}

TEST(Compress, EmptyInput)
{
    for (const StreamCompressor *compressor : families()) {
        std::vector<std::byte> compressed;
        EXPECT_EQ(0u, compressor->compress({}, compressed));
        EXPECT_TRUE(compressed.empty());
        EXPECT_TRUE(compressor->decompress(compressed, {}));
    }
}

TEST(Compress, AllZeroBlocks)
{
    for (const StreamCompressor *compressor : families()) {
        for (std::size_t n :
             {1u, 2u, 15u, 16u, 64u, 4096u, 70000u}) {
            const std::vector<std::byte> zeros(n, std::byte(0));
            expectRoundtrip(*compressor, zeros);
            // All-zero input is the best case; it must actually
            // compress once past the minimum match length.
            if (n >= 64) {
                std::vector<std::byte> compressed;
                compressor->compress(zeros, compressed);
                EXPECT_LT(compressed.size(), n / 4);
            }
        }
    }
}

TEST(Compress, IncompressibleRandom)
{
    Rng rng(0xF00DF00D);
    for (const StreamCompressor *compressor : families()) {
        for (std::size_t n : {1u, 7u, 13u, 255u, 4096u, 70000u}) {
            const auto input = randomBytes(n, rng);
            expectRoundtrip(*compressor, input);
            // Incompressible input degrades gracefully: bounded
            // literal-run framing, never unbounded expansion.
            std::vector<std::byte> compressed;
            compressor->compress(input, compressed);
            EXPECT_LE(compressed.size(), n + n / 16 + 8);
        }
    }
}

/**
 * 300000 bytes of repeating structure with embedded noise: long-range
 * matches exist but are interrupted, so offsets span the full range.
 */
std::vector<std::byte>
periodicWithNoise()
{
    Rng rng(0xBEEF);
    std::vector<std::byte> input;
    input.reserve(300000);
    for (std::size_t i = 0; i < 300000; ++i) {
        if (i % 97 == 0)
            input.push_back(std::byte(rng() & 0xff));
        else
            input.push_back(std::byte((i / 3) & 0xff));
    }
    return input;
}

/**
 * 1 to 3000 bytes over an alphabet that sweeps from near-constant to
 * full-random: small alphabets make dense match structure, large ones
 * force literal runs.
 */
std::vector<std::byte>
mixedContent(Rng &rng)
{
    const std::size_t n = 1 + std::size_t(rng() % 3000);
    std::vector<std::byte> input(n);
    const unsigned alphabet = 1 + unsigned(rng() % 256);
    for (auto &b : input)
        b = std::byte(rng() % alphabet);
    return input;
}

TEST(Compress, LargeBlocksPastSixtyFourKiB)
{
    // > 64 KiB exercises LZ4's 16-bit offset ceiling and LZF's
    // 8 KiB window wrap on one continuous input.
    const std::vector<std::byte> input = periodicWithNoise();
    for (const StreamCompressor *compressor : families())
        expectRoundtrip(*compressor, input);
}

TEST(Compress, FuzzMixedContent)
{
    Rng rng(0xCAFE);
    for (int round = 0; round < 60; ++round) {
        const std::vector<std::byte> input = mixedContent(rng);
        for (const StreamCompressor *compressor : families())
            expectRoundtrip(*compressor, input);
    }
}

/** Compress @p input on a thread that has compressed nothing else. */
std::vector<std::byte>
compressOnFreshThread(const StreamCompressor &compressor,
                      const std::vector<std::byte> &input)
{
    std::vector<std::byte> out;
    std::thread([&] { compressor.compress(input, out); }).join();
    return out;
}

TEST(Compress, OutputIsIndependentOfEarlierBlocks)
{
    // Each thread keeps its match table across blocks; what it
    // compressed before must never change the bytes of the next block.
    // The blocks are typed streams of real encodings, compressed in
    // turn on one thread and then each on a fresh thread.
    const FormatRegistry &registry = defaultRegistry();
    Rng rng(0x5EED);
    const TripletMatrix random = randomMatrix(64, 0.08, rng);
    const TripletMatrix band = bandMatrix(64, 3, rng);
    std::vector<std::vector<std::byte>> blocks;
    for (const TripletMatrix *matrix : {&random, &band}) {
        for (const Tile &tile : partition(*matrix, 16).tiles) {
            for (FormatKind kind : {FormatKind::CSR, FormatKind::COO,
                                    FormatKind::SELLCS}) {
                for (const TypedStream &stream :
                     registry.codec(kind).encode(tile)->typedStreams())
                    blocks.push_back(stream.bytes);
            }
        }
    }
    for (const StreamCompressor *compressor : families()) {
        std::vector<std::vector<std::byte>> inTurn(blocks.size());
        std::thread([&] {
            for (std::size_t i = 0; i < blocks.size(); ++i)
                compressor->compress(blocks[i], inTurn[i]);
        }).join();
        std::size_t differing = 0;
        for (std::size_t i = 0; i < blocks.size(); ++i)
            differing += compressOnFreshThread(*compressor, blocks[i]) !=
                         inTurn[i];
        EXPECT_EQ(differing, 0u)
            << "family " << compressionFamilyName(compressor->family())
            << ": of " << blocks.size() << " blocks";
    }
}

TEST(Compress, FuzzEncodedTileStreams)
{
    // The payloads the second stage actually sees: typed streams of
    // real encodings over random and banded matrices.
    const FormatRegistry &registry = defaultRegistry();
    Rng rng(0x7E57);
    const TripletMatrix random = randomMatrix(128, 0.02, rng);
    const TripletMatrix band = bandMatrix(128, 4, rng);
    for (const TripletMatrix *matrix : {&random, &band}) {
        const Partitioning parts = partition(*matrix, 16);
        for (const Tile &tile : parts.tiles) {
            for (FormatKind kind :
                 {FormatKind::CSR, FormatKind::SELLCS,
                  FormatKind::JDS, FormatKind::BITMAP}) {
                const auto encoded = registry.codec(kind).encode(tile);
                for (const TypedStream &stream :
                     encoded->typedStreams())
                    for (const StreamCompressor *compressor :
                         families())
                        expectRoundtrip(*compressor, stream.bytes);
            }
        }
    }
}

TEST(Compress, DecoderRejectsTruncatedImages)
{
    Rng rng(0xDEAD);
    const auto input = randomBytes(512, rng);
    for (const StreamCompressor *compressor : families()) {
        std::vector<std::byte> compressed;
        compressor->compress(input, compressed);
        std::vector<std::byte> output(input.size());
        for (std::size_t keep = 0; keep < compressed.size();
             keep += 1 + keep / 8) {
            const std::span<const std::byte> truncated(
                compressed.data(), keep);
            // Must fail cleanly: a truncated image can never fill
            // the full output exactly.
            EXPECT_FALSE(compressor->decompress(truncated, output));
        }
    }
}

TEST(Compress, DecoderSurvivesGarbageImages)
{
    // Random bytes as compressed input: any result is acceptable
    // except memory errors — the sanitizer builds are the real
    // assertion here; the loop just must not crash.
    Rng rng(0xBAD5EED);
    for (const StreamCompressor *compressor : families()) {
        for (int round = 0; round < 200; ++round) {
            const auto garbage =
                randomBytes(1 + std::size_t(rng() % 200), rng);
            std::vector<std::byte> output(rng() % 300);
            (void)compressor->decompress(garbage, output);
        }
    }
}

TEST(Compress, CompressTileNeverExceedsRawBytes)
{
    const FormatRegistry &registry = defaultRegistry();
    Rng rng(0x1234);
    const TripletMatrix matrix = randomMatrix(96, 0.05, rng);
    const Partitioning parts = partition(matrix, 16);
    for (const Tile &tile : parts.tiles) {
        for (FormatKind kind : paperFormats()) {
            const auto encoded = registry.codec(kind).encode(tile);
            const TileCompression comp = compressTile(*encoded);
            // STORE passthrough bounds the loss at zero.
            EXPECT_LE(comp.storedBytes(), comp.rawBytes());
            // Raw accounting covers the declared wire sizes exactly.
            const auto streams = encoded->streams();
            EXPECT_EQ(comp.rawBytes(),
                      std::accumulate(streams.begin(), streams.end(),
                                      Bytes(0)));
        }
    }
}

TEST(Compress, KeptPayloadsDecompressToOriginal)
{
    const FormatRegistry &registry = defaultRegistry();
    Rng rng(0x5555);
    const TripletMatrix matrix = bandMatrix(128, 2, rng);
    const Partitioning parts = partition(matrix, 16);
    bool sawCompressed = false;
    for (const Tile &tile : parts.tiles) {
        const auto encoded =
            registry.codec(FormatKind::CSR).encode(tile);
        const auto typed = encoded->typedStreams();
        const TileCompression comp =
            compressTile(*encoded, true);
        ASSERT_EQ(typed.size(), comp.streams.size());
        for (std::size_t i = 0; i < typed.size(); ++i) {
            const CompressedStream &s = comp.streams[i];
            EXPECT_EQ(typed[i].cls, s.cls);
            EXPECT_EQ(typed[i].size(), s.rawBytes);
            if (s.family == CompressionFamily::Store) {
                EXPECT_EQ(typed[i].bytes, s.payload);
                continue;
            }
            sawCompressed = true;
            // Compressed streams pay the container header and must
            // still beat STORE after it.
            EXPECT_EQ(s.payloadBytes + streamHeaderBytes,
                      s.storedBytes());
            EXPECT_LT(s.storedBytes(), s.rawBytes);
            std::vector<std::byte> output(s.rawBytes);
            const StreamCompressor *codec = compressorFor(s.family);
            ASSERT_NE(nullptr, codec);
            ASSERT_TRUE(codec->decompress(s.payload, output));
            EXPECT_EQ(typed[i].bytes, output);
        }
    }
    // Band-matrix CSR streams are highly repetitive; selection must
    // actually engage somewhere in the sweep.
    EXPECT_TRUE(sawCompressed);
}

TEST(Compress, TotalsAreMonotonic)
{
    const FormatRegistry &registry = defaultRegistry();
    Rng rng(0x9999);
    const TripletMatrix matrix = randomMatrix(64, 0.05, rng);
    const Partitioning parts = partition(matrix, 16);
    const CompressTotals before = compressTotals();
    std::uint64_t streamsSeen = 0;
    for (const Tile &tile : parts.tiles) {
        const auto encoded =
            registry.codec(FormatKind::CSR).encode(tile);
        streamsSeen += compressTile(*encoded).streams.size();
    }
    const CompressTotals after = compressTotals();
    EXPECT_EQ(before.streams + streamsSeen, after.streams);
    EXPECT_GE(after.rawBytes, before.rawBytes);
    EXPECT_GE(after.storedBytes, before.storedBytes);
    EXPECT_GE(after.nanos, before.nanos);
}

/**
 * Random tiles (density 0.01, 0.1 and 0.5) and band tiles (width 1
 * and 8, repetitive values) at p = 8, 16 and 32, from fixed seeds.
 */
std::vector<Tile>
corpusTiles()
{
    std::vector<Tile> tiles;
    Rng rng(0x71E5);
    for (Index p : {Index(8), Index(16), Index(32)}) {
        for (double density : {0.01, 0.1, 0.5}) {
            TileBuilder random(p);
            for (Index r = 0; r < p; ++r)
                for (Index c = 0; c < p; ++c)
                    if (rng.chance(density))
                        random.set(r, c, static_cast<Value>(
                                             rng.range(0.5, 1.5)));
            tiles.push_back(random.build());
        }
        for (Index width : {Index(1), Index(8)}) {
            TileBuilder band(p);
            for (Index r = 0; r < p; ++r)
                for (Index c = r; c < std::min(p, r + width); ++c)
                    band.set(r, c, static_cast<Value>(1 + c % 4));
            tiles.push_back(band.build());
        }
    }
    return tiles;
}

/**
 * The selection rule stated exhaustively: compress @p stream with LZ4
 * and LZF, verify every image, and keep the smallest verified image
 * whose stored size beats STORE. LZ4 is tried first, so LZF replaces
 * it only when strictly smaller.
 */
CompressedStream
referenceSelection(const TypedStream &stream)
{
    CompressedStream best;
    best.cls = stream.cls;
    best.name = stream.name;
    best.wire = stream.wire;
    best.family = CompressionFamily::Store;
    best.rawBytes = stream.size();
    best.payloadBytes = stream.size();
    best.payload = stream.bytes;
    for (const StreamCompressor *compressor :
         {&lz4Compressor(), &lzfCompressor()}) {
        std::vector<std::byte> image;
        compressor->compress(stream.bytes, image);
        std::vector<std::byte> check(stream.bytes.size());
        if (!compressor->decompress(image, check) || check != stream.bytes)
            continue;
        if (Bytes(image.size()) + streamHeaderBytes < best.storedBytes()) {
            best.family = compressor->family();
            best.payloadBytes = Bytes(image.size());
            best.payload = std::move(image);
        }
    }
    return best;
}

/** The first field in which @p got differs from @p want, or "". */
std::string
streamMismatch(const CompressedStream &got, const CompressedStream &want)
{
    if (got.cls != want.cls)
        return "cls";
    if (std::strcmp(got.name, want.name) != 0)
        return "name";
    if (got.wire != want.wire)
        return "wire";
    if (got.family != want.family)
        return "family";
    if (got.rawBytes != want.rawBytes)
        return "rawBytes";
    if (got.payloadBytes != want.payloadBytes)
        return "payloadBytes";
    if (got.payload != want.payload)
        return "payload";
    return "";
}

TEST(Compress, SelectionMatchesExhaustiveReference)
{
    const FormatRegistry &registry = defaultRegistry();
    const std::vector<Tile> tiles = corpusTiles();
    std::array<std::size_t, 3> selected{}; // per CompressionFamily
    for (const Tile &tile : tiles) {
        for (FormatKind kind : allFormats()) {
            const auto encoded = registry.codec(kind).encode(tile);
            const std::vector<TypedStream> typed =
                encoded->typedStreams();
            const TileCompression got = compressTile(*encoded, true);
            ASSERT_EQ(got.streams.size(), typed.size());
            for (std::size_t i = 0; i < typed.size(); ++i) {
                EXPECT_EQ(streamMismatch(got.streams[i],
                                         referenceSelection(typed[i])),
                          "")
                    << formatName(kind) << " p=" << tile.size()
                    << " nnz=" << tile.nnz() << " stream "
                    << typed[i].name;
                ++selected[std::size_t(got.streams[i].family)];
            }
        }
    }
    // Every outcome occurs, so the comparison covers all three.
    for (std::size_t family = 0; family < selected.size(); ++family)
        EXPECT_GT(selected[family], 0u)
            << compressionFamilyName(CompressionFamily(family));
}

/**
 * Inputs whose images are pinned: the typed streams of all 14 formats
 * over corpusTiles(), plus the random, all-zero, mixed and 64 KiB+
 * inputs of the roundtrip tests above.
 */
std::vector<std::vector<std::byte>>
encoderCorpus()
{
    std::vector<std::vector<std::byte>> corpus;
    const FormatRegistry &registry = defaultRegistry();
    for (const Tile &tile : corpusTiles())
        for (FormatKind kind : allFormats())
            for (const TypedStream &stream :
                 registry.codec(kind).encode(tile)->typedStreams())
                corpus.push_back(stream.bytes);
    Rng rng(0xF00DF00D);
    for (std::size_t n : {1u, 7u, 13u, 255u, 4096u, 70000u})
        corpus.push_back(randomBytes(n, rng));
    for (std::size_t n : {1u, 2u, 15u, 16u, 64u, 4096u, 70000u})
        corpus.emplace_back(n, std::byte(0));
    Rng mixed(0xCAFE);
    for (int round = 0; round < 60; ++round)
        corpus.push_back(mixedContent(mixed));
    corpus.push_back(periodicWithNoise());
    return corpus;
}

TEST(Compress, EncoderImagesArePinned)
{
    // FNV-1a over every image's length and bytes, in corpus order.
    // bench_compress_parity compares sizes only; these two constants
    // hold the images byte for byte.
    const std::vector<std::vector<std::byte>> corpus = encoderCorpus();
    const std::pair<const StreamCompressor *, std::uint64_t> pinned[] = {
        {&lz4Compressor(), 0x33b4e97b2c1fabf2ULL},
        {&lzfCompressor(), 0xecd38cbe52528dceULL},
    };
    for (const auto &[compressor, expected] : pinned) {
        std::uint64_t hash = fnvOffsetBasis;
        std::vector<std::byte> image;
        for (const std::vector<std::byte> &input : corpus) {
            image.clear();
            compressor->compress(input, image);
            hash = fnv1aValue(std::uint64_t(image.size()), hash);
            hash = fnv1a(image.data(), image.size(), hash);
        }
        EXPECT_EQ(hash, expected)
            << compressionFamilyName(compressor->family()) << " over "
            << corpus.size() << " inputs: 0x" << std::hex << hash;
    }
}

/**
 * The most an encoder writes for @p n input bytes, as proven in
 * lz4_block.cc and lzf_block.cc.
 */
std::size_t
imageBound(CompressionFamily family, std::size_t n)
{
    return family == CompressionFamily::Lz4 ? n + n / 255 + 2
                                            : n + n / 32 + 1;
}

/** The first @p n bytes of a run of all-distinct 32-bit words. */
std::vector<std::byte>
distinctWords(std::size_t n)
{
    std::vector<std::byte> out(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::uint32_t word =
            static_cast<std::uint32_t>(i / 4) * 2654435761u;
        out[i] = std::byte((word >> (8 * (i % 4))) & 0xff);
    }
    return out;
}

/**
 * "wxyz" then @p count repeats of one fresh literal byte followed by
 * "wxyz": one literal and one 4-byte match per sequence, the densest
 * framing either encoder emits.
 */
std::vector<std::byte>
literalMatchAlternation(std::size_t count, Rng &rng)
{
    const std::byte word[] = {std::byte('w'), std::byte('x'),
                              std::byte('y'), std::byte('z')};
    std::vector<std::byte> out(std::begin(word), std::end(word));
    std::byte previous{0};
    for (std::size_t k = 0; k < count; ++k) {
        std::byte literal;
        do
            literal = std::byte(rng() & 0xff);
        while (literal == previous || literal == word[0]);
        previous = literal;
        out.push_back(literal);
        out.insert(out.end(), std::begin(word), std::end(word));
    }
    return out;
}

TEST(Compress, EncodersStayWithinTheirBound)
{
    Rng rng(0xB0B0);
    std::vector<std::vector<std::byte>> inputs;
    std::vector<std::size_t> sizes(301);
    std::iota(sizes.begin(), sizes.end(), std::size_t(0));
    sizes.push_back(70 * 1024);
    for (std::size_t n : sizes) {
        inputs.push_back(randomBytes(n, rng));
        inputs.push_back(distinctWords(n));
    }
    for (std::size_t count : {1u, 15u, 16u, 300u, 5000u})
        inputs.push_back(literalMatchAlternation(count, rng));
    // Equal-byte runs at the 4-bit and 8-bit length boundaries, alone
    // and between random literal runs of the same lengths.
    const std::size_t runs[] = {14, 15, 16, 254, 255, 256, 270};
    for (std::size_t run : runs) {
        inputs.emplace_back(run, std::byte(0x11));
        for (std::size_t literals : runs) {
            std::vector<std::byte> input = randomBytes(literals, rng);
            input.insert(input.end(), run, std::byte(0x11));
            const std::vector<std::byte> tail = randomBytes(literals, rng);
            input.insert(input.end(), tail.begin(), tail.end());
            inputs.push_back(std::move(input));
        }
    }

    const std::vector<std::byte> prefix = {std::byte(1), std::byte(2),
                                           std::byte(3)};
    for (const StreamCompressor *compressor : families()) {
        const CompressionFamily family = compressor->family();
        for (const std::vector<std::byte> &input : inputs) {
            // The image is appended after what @p out already holds.
            std::vector<std::byte> out = prefix;
            const std::size_t written = compressor->compress(input, out);
            ASSERT_EQ(written, out.size() - prefix.size());
            EXPECT_LE(written, imageBound(family, input.size()))
                << compressionFamilyName(family) << " on "
                << input.size() << " bytes";
            EXPECT_TRUE(std::equal(prefix.begin(), prefix.end(),
                                   out.begin()));
            const std::span<const std::byte> image(
                out.data() + prefix.size(), written);
            std::vector<std::byte> output(input.size());
            ASSERT_TRUE(compressor->decompress(image, output));
            EXPECT_EQ(output, input);
        }
    }
}

TEST(Compress, TilesOnFreshThreadsMatchInTurn)
{
    // compressTile keeps per-thread buffers; what a thread compressed
    // before must never change the result for the next tile. A mixed
    // run of tiles across formats is compressed in turn on one thread,
    // then each tile again on a fresh thread.
    const FormatRegistry &registry = defaultRegistry();
    std::vector<std::unique_ptr<EncodedTile>> encoded;
    for (const Tile &tile : corpusTiles())
        for (FormatKind kind : allFormats())
            encoded.push_back(registry.codec(kind).encode(tile));
    Rng rng(0x0DE5);
    std::shuffle(encoded.begin(), encoded.end(), rng);

    std::vector<TileCompression> inTurn(encoded.size());
    std::thread([&] {
        for (std::size_t i = 0; i < encoded.size(); ++i)
            inTurn[i] = compressTile(*encoded[i], true);
    }).join();
    std::size_t differing = 0;
    for (std::size_t i = 0; i < encoded.size(); ++i) {
        TileCompression fresh;
        std::thread([&] {
            fresh = compressTile(*encoded[i], true);
        }).join();
        bool same = fresh.streams.size() == inTurn[i].streams.size();
        for (std::size_t s = 0; same && s < fresh.streams.size(); ++s)
            same = streamMismatch(inTurn[i].streams[s],
                                  fresh.streams[s])
                       .empty();
        differing += !same;
    }
    EXPECT_EQ(differing, 0u) << "of " << encoded.size() << " tiles";
}

} // namespace
} // namespace copernicus
