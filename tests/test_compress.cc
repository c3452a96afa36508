/**
 * @file
 * Second-stage compressor tests: exact roundtrip fuzzing for both
 * block families across random, structured, catalog-derived and
 * adversarial inputs, decoder robustness on malformed images, and the
 * compressTile() selection/accounting contract.
 *
 * The fuzz bodies are deterministic (fixed Rng seeds) and also run
 * under the sanitizer builds — the tsan label puts them in the
 * concurrency lane, and the asan/ubsan CI jobs run the whole suite —
 * so decoder bounds handling is exercised with full instrumentation.
 */

#include <cstring>
#include <numeric>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

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

TEST(Compress, LargeBlocksPastSixtyFourKiB)
{
    // > 64 KiB exercises LZ4's 16-bit offset ceiling and LZF's
    // 8 KiB window wrap on one continuous input.
    Rng rng(0xBEEF);
    std::vector<std::byte> input;
    input.reserve(300000);
    // Repeating structure with embedded noise: long-range matches
    // exist but are interrupted, so offsets span the full range.
    for (std::size_t i = 0; i < 300000; ++i) {
        if (i % 97 == 0)
            input.push_back(std::byte(rng() & 0xff));
        else
            input.push_back(std::byte((i / 3) & 0xff));
    }
    for (const StreamCompressor *compressor : families())
        expectRoundtrip(*compressor, input);
}

TEST(Compress, FuzzMixedContent)
{
    Rng rng(0xCAFE);
    for (int round = 0; round < 60; ++round) {
        const std::size_t n = 1 + std::size_t(rng() % 3000);
        std::vector<std::byte> input(n);
        // Alphabet size sweeps from near-constant to full-random:
        // small alphabets make dense match structure, large ones
        // force literal runs.
        const unsigned alphabet = 1 + unsigned(rng() % 256);
        for (auto &b : input)
            b = std::byte(rng() % alphabet);
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
            // Raw accounting covers the legacy stream sizes exactly.
            const auto streams = encoded->streams();
            EXPECT_EQ(comp.rawBytes(),
                      std::accumulate(streams.begin(), streams.end(),
                                      Bytes(0)));
        }
    }
}

TEST(Compress, StorePolicyIsIdentityAccounting)
{
    const FormatRegistry &registry = defaultRegistry();
    Rng rng(0xABCD);
    const TripletMatrix matrix = randomMatrix(64, 0.1, rng);
    const Partitioning parts = partition(matrix, 16);
    CompressionPolicy store;
    store.value = SecondStageChoice::Store;
    store.index = SecondStageChoice::Store;
    store.offset = SecondStageChoice::Store;
    for (const Tile &tile : parts.tiles) {
        const auto encoded =
            registry.codec(FormatKind::CSR).encode(tile);
        const TileCompression comp = compressTile(*encoded, store);
        // Disabling the second stage IS the all-STORE policy.
        EXPECT_EQ(comp.storedBytes(), comp.rawBytes());
        for (const CompressedStream &s : comp.streams)
            EXPECT_EQ(CompressionFamily::Store, s.family);
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
            compressTile(*encoded, CompressionPolicy{}, true);
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

} // namespace
} // namespace copernicus
