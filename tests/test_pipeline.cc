/**
 * @file
 * Streaming-pipeline tests: totals, balance ratio, throughput and
 * bandwidth-utilization bookkeeping over whole matrices.
 */

#include <algorithm>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "compress/second_stage.hh"
#include "formats/csr_format.hh"
#include "formats/validate.hh"
#include "hls/decompressor.hh"
#include "pipeline/stream_pipeline.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

TEST(PipelineTest, EmptyMatrixProducesZeroResult)
{
    TripletMatrix m(32, 32);
    m.finalize();
    const auto parts = partition(m, 16);
    const auto result = runPipeline(parts, FormatKind::CSR);
    EXPECT_TRUE(result.partitions.empty());
    EXPECT_EQ(result.totalCycles, 0u);
    EXPECT_EQ(result.totalBytes, 0u);
    EXPECT_DOUBLE_EQ(result.throughputBytesPerSec, 0.0);
}

TEST(PipelineTest, TotalsAreSumsOfPartitions)
{
    Rng rng(1);
    const auto m = randomMatrix(64, 0.05, rng);
    const auto parts = partition(m, 16);
    const auto result = runPipeline(parts, FormatKind::COO);

    Cycles memory = 0, compute = 0;
    Bytes bytes = 0, useful = 0;
    Cycles bottlenecks = 0;
    for (const auto &t : result.partitions) {
        memory += t.memoryCycles;
        compute += t.computeCycles;
        bytes += t.totalBytes;
        useful += t.usefulBytes;
        bottlenecks += t.bottleneckCycles();
    }
    EXPECT_EQ(result.totalMemoryCycles, memory);
    EXPECT_EQ(result.totalComputeCycles, compute);
    EXPECT_EQ(result.totalBytes, bytes);
    EXPECT_EQ(result.totalUsefulBytes, useful);
    // Fill (first read) + steady-state bottlenecks + drain (last write).
    EXPECT_EQ(result.totalCycles,
              bottlenecks + result.partitions.front().memoryCycles +
                  result.partitions.back().writeCycles);
}

TEST(PipelineTest, CooBandwidthUtilizationIsOneThird)
{
    Rng rng(2);
    const auto m = randomMatrix(64, 0.08, rng);
    const auto result = runPipeline(partition(m, 16), FormatKind::COO);
    EXPECT_DOUBLE_EQ(result.bandwidthUtilization, 1.0 / 3.0);
}

TEST(PipelineTest, DenseBalanceNearOneAtP8)
{
    // Section 6.2: the dense format is close to balanced at p = 8 and
    // drifts memory-bound as p grows.
    Rng rng(3);
    const auto m = randomMatrix(64, 0.5, rng);
    const auto r8 = runPipeline(partition(m, 8), FormatKind::Dense);
    const auto r32 = runPipeline(partition(m, 32), FormatKind::Dense);
    EXPECT_NEAR(r8.balanceRatio, 1.0, 0.3);
    EXPECT_GT(r32.balanceRatio, r8.balanceRatio);
}

TEST(PipelineTest, SparseFormatsReduceMemoryLatencyVsDense)
{
    // Section 6.2: all sparse formats transfer far less than dense.
    Rng rng(4);
    const auto m = randomMatrix(128, 0.02, rng);
    const auto parts = partition(m, 16);
    const auto dense = runPipeline(parts, FormatKind::Dense);
    for (FormatKind kind : sparseFormats()) {
        const auto sparse = runPipeline(parts, kind);
        EXPECT_LT(sparse.totalMemoryCycles, dense.totalMemoryCycles)
            << formatName(kind);
    }
}

TEST(PipelineTest, CscComputeLatencyExceedsDense)
{
    // Section 6.2: CSR/CSC/DIA lower memory latency but pay in compute;
    // CSC is the extreme case.
    Rng rng(5);
    const auto m = randomMatrix(64, 0.3, rng);
    const auto parts = partition(m, 16);
    const auto dense = runPipeline(parts, FormatKind::Dense);
    const auto csc = runPipeline(parts, FormatKind::CSC);
    EXPECT_GT(csc.totalComputeCycles, dense.totalComputeCycles);
}

TEST(PipelineTest, ThroughputMatchesBytesOverSeconds)
{
    Rng rng(6);
    const auto m = randomMatrix(64, 0.1, rng);
    const auto result = runPipeline(partition(m, 16), FormatKind::CSR);
    ASSERT_GT(result.seconds, 0.0);
    EXPECT_DOUBLE_EQ(result.throughputBytesPerSec,
                     static_cast<double>(result.totalBytes) /
                         result.seconds);
}

TEST(PipelineTest, MeanSigmaAveragesPartitions)
{
    Rng rng(7);
    const auto m = randomMatrix(64, 0.1, rng);
    const auto result = runPipeline(partition(m, 16), FormatKind::CSR);
    double sum = 0;
    for (const auto &t : result.partitions)
        sum += t.sigma;
    EXPECT_NEAR(result.meanSigma, sum / result.partitions.size(), 1e-12);
}

TEST(PipelineTest, DenseSigmaOneForEveryPartition)
{
    Rng rng(8);
    const auto m = randomMatrix(64, 0.05, rng);
    const auto result = runPipeline(partition(m, 16), FormatKind::Dense);
    for (const auto &t : result.partitions)
        EXPECT_DOUBLE_EQ(t.sigma, 1.0);
    EXPECT_DOUBLE_EQ(result.meanSigma, 1.0);
}

TEST(PipelineTest, ClockScalesSecondsNotCycles)
{
    Rng rng(9);
    const auto m = randomMatrix(64, 0.1, rng);
    const auto parts = partition(m, 16);
    HlsConfig fast;
    fast.clockMhz = 500.0;
    const auto slow_result = runPipeline(parts, FormatKind::CSR);
    const auto fast_result = runPipeline(parts, FormatKind::CSR, fast);
    EXPECT_EQ(slow_result.totalCycles, fast_result.totalCycles);
    EXPECT_NEAR(slow_result.seconds, 2.0 * fast_result.seconds, 1e-12);
}

TEST(PipelineTest, ResultRecordsFormatAndPartition)
{
    Rng rng(10);
    const auto m = randomMatrix(32, 0.1, rng);
    const auto result = runPipeline(partition(m, 8), FormatKind::LIL);
    EXPECT_EQ(result.format, FormatKind::LIL);
    EXPECT_EQ(result.partitionSize, 8u);
}

TEST(PipelineTest, VectorStreamingAddsMemoryButNotUtilization)
{
    Rng rng(15);
    const auto m = randomMatrix(64, 0.05, rng);
    const auto parts = partition(m, 16);
    // One streamline so the vector segment cannot ride a free lane.
    HlsConfig narrow;
    narrow.streamlines = 1;
    HlsConfig with_vector = narrow;
    with_vector.streamVectorOperand = true;
    const auto base = runPipeline(parts, FormatKind::COO, narrow);
    const auto streamed = runPipeline(parts, FormatKind::COO,
                                      with_vector);
    EXPECT_GT(streamed.totalMemoryCycles, base.totalMemoryCycles);
    // The paper's utilization metric covers the compressed partition
    // only: COO stays exactly at 1/3 either way.
    EXPECT_DOUBLE_EQ(streamed.bandwidthUtilization, 1.0 / 3.0);
    EXPECT_EQ(streamed.totalBytes, base.totalBytes);
}

TEST(PipelineTest, SecondStageCompressionOnlyImproves)
{
    Rng rng(21);
    const auto m = bandMatrix(128, 2, rng);
    const auto parts = partition(m, 16);
    HlsConfig compressed;
    compressed.secondStageCompression = true;
    for (FormatKind kind :
         {FormatKind::CSR, FormatKind::Dense, FormatKind::COO}) {
        const auto off = runPipeline(parts, kind);
        const auto on = runPipeline(parts, kind, compressed);
        // STORE passthrough bounds the loss at zero: stored bytes
        // never exceed raw, so utilization never drops and memory
        // latency never rises.
        EXPECT_LE(on.totalBytes, off.totalBytes) << formatName(kind);
        EXPECT_GE(on.bandwidthUtilization, off.bandwidthUtilization)
            << formatName(kind);
        EXPECT_LE(on.totalMemoryCycles, off.totalMemoryCycles)
            << formatName(kind);
        // Useful bytes are a property of the tile, not the wire
        // image; compression must not touch them.
        EXPECT_EQ(on.totalUsefulBytes, off.totalUsefulBytes);
        // Compute is downstream of the decompressor and unchanged.
        EXPECT_EQ(on.totalComputeCycles, off.totalComputeCycles);
    }
    // A banded matrix's DENSE tiles are mostly zero bytes — the
    // second stage must find real compression there.
    const auto dense_off = runPipeline(parts, FormatKind::Dense);
    const auto dense_on =
        runPipeline(parts, FormatKind::Dense, compressed);
    EXPECT_LT(dense_on.totalBytes, dense_off.totalBytes);
    EXPECT_GT(dense_on.bandwidthUtilization,
              dense_off.bandwidthUtilization);
}

TEST(PipelineTest, AllStoreSecondStagePricesLikeStageOff)
{
    // A tile whose every stream selects STORE must price field for
    // field as it does with the second stage off, so stored sizes must
    // ride the same first-stage wires as the raw ones.
    TileBuilder builder(16);
    builder.set(3, 5, 1.5f);
    builder.set(9, 9, 2.0f);
    const Tile tile = builder.build();
    HlsConfig on;
    on.secondStageCompression = true;
    const FormatRegistry &registry = defaultRegistry();
    std::vector<FormatKind> allStore;
    for (FormatKind kind : allFormats()) {
        const FormatCodec &codec = registry.codec(kind);
        const TileCompression stored = compressTile(*codec.encode(tile));
        if (!std::all_of(stored.streams.begin(), stored.streams.end(),
                         [](const CompressedStream &s) {
                             return s.family == CompressionFamily::Store;
                         }))
            continue;
        allStore.push_back(kind);
        SCOPED_TRACE(formatName(kind));
        const PartitionTiming off = timePartition(tile, codec, HlsConfig());
        const PartitionTiming all = timePartition(tile, codec, on);
        EXPECT_EQ(all.memoryCycles, off.memoryCycles);
        EXPECT_EQ(all.computeCycles, off.computeCycles);
        EXPECT_EQ(all.writeCycles, off.writeCycles);
        EXPECT_EQ(all.decompressCycles, off.decompressCycles);
        EXPECT_EQ(all.rowsProduced, off.rowsProduced);
        EXPECT_EQ(all.sigma, off.sigma);
        EXPECT_EQ(all.totalBytes, off.totalBytes);
        EXPECT_EQ(all.usefulBytes, off.usefulBytes);
    }
    // COO, DOK and JDS carry several arrays on one wire; each stores
    // every stream of this tile.
    for (FormatKind kind :
         {FormatKind::COO, FormatKind::DOK, FormatKind::JDS})
        EXPECT_NE(std::find(allStore.begin(), allStore.end(), kind),
                  allStore.end())
            << formatName(kind);
}

TEST(PipelineTest, DiagonalMatrixFavorsDiaBandwidth)
{
    Rng rng(11);
    const auto m = diagonalMatrix(128, rng);
    const auto parts = partition(m, 16);
    const auto dia = runPipeline(parts, FormatKind::DIA);
    const auto coo = runPipeline(parts, FormatKind::COO);
    EXPECT_GT(dia.bandwidthUtilization, 0.9);
    EXPECT_GT(dia.bandwidthUtilization, coo.bandwidthUtilization);
}

TEST(PipelineTest, EveryPartitionTimingIsConsistent)
{
    Rng rng(12);
    const auto m = randomMatrix(96, 0.05, rng);
    const auto result = runPipeline(partition(m, 16), FormatKind::BCSR);
    for (const auto &t : result.partitions) {
        EXPECT_GT(t.memoryCycles, 0u);
        EXPECT_GT(t.computeCycles, 0u);
        EXPECT_GE(t.computeCycles, t.decompressCycles);
        EXPECT_GE(t.totalBytes, t.usefulBytes);
        EXPECT_GE(t.bottleneckCycles(), t.memoryCycles);
        EXPECT_GE(t.bottleneckCycles(), t.computeCycles);
    }
}

/** A CSR codec whose encode() bumps the first stored value. */
class ValueBumpingCsrCodec : public CsrCodec
{
  public:
    std::unique_ptr<EncodedTile>
    encode(const Tile &tile) const override
    {
        auto encoded = CsrCodec::encode(tile);
        static_cast<CsrEncoded &>(*encoded).values.front() += 1.0f;
        return encoded;
    }
};

/** A CSR codec whose encode() drops the tile's last non-zero. */
class EntryDroppingCsrCodec : public CsrCodec
{
  public:
    std::unique_ptr<EncodedTile>
    encode(const Tile &tile) const override
    {
        std::vector<TileNonzero> kept = tile.nonzeros();
        kept.pop_back();
        return CsrCodec::encode(Tile(tile.size(), 0, 0, std::move(kept)));
    }
};

/** What timePartition panics with on @p tile, or "" if it prices it. */
std::string
panicOf(const Tile &tile, const FormatCodec &codec)
{
    try {
        timePartition(tile, codec, HlsConfig());
    } catch (const PanicError &e) {
        return e.what();
    }
    return "";
}

TEST(PipelineTest, CorruptedDecodeIsAPanic)
{
    // Both corruptions are well-formed CSR, so they pass the grammar
    // check and only the decode check against the source tile sees them.
    Rng rng(13);
    const Partitioning parts = partition(randomMatrix(16, 0.3, rng), 16);
    ASSERT_EQ(parts.tiles.size(), 1u);
    const Tile &tile = parts.tiles.front();
    const std::string corrupted =
        "pipeline: decompressor model corrupted a tile";
    const bool grammar = grammarValidationEnabled();
    setGrammarValidationEnabled(true);
    EXPECT_EQ(panicOf(tile, CsrCodec()), "");
    EXPECT_NE(panicOf(tile, ValueBumpingCsrCodec()).find(corrupted),
              std::string::npos);
    EXPECT_NE(panicOf(tile, EntryDroppingCsrCodec()).find(corrupted),
              std::string::npos);
    setGrammarValidationEnabled(grammar);
}

TEST(PipelineTest, OutOfRangeDecodeIsAPanic)
{
    Rng rng(14);
    const Partitioning parts = partition(randomMatrix(16, 0.3, rng), 16);
    ASSERT_EQ(parts.tiles.size(), 1u);
    const Tile &tile = parts.tiles.front();
    auto encoded = CsrCodec().encode(tile);
    static_cast<CsrEncoded &>(*encoded).colInx.back() = 16;
    EXPECT_THROW(verifyDecompression(*encoded, tile, HlsConfig()),
                 PanicError);
}

} // namespace
} // namespace copernicus
