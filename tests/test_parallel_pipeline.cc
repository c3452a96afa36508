/**
 * @file
 * Tests for the coarse-grained multi-PE aggregation model.
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/status.hh"
#include "pipeline/parallel_pipeline.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

Partitioning
sampleParts(Index n = 128, double density = 0.05, Index p = 16)
{
    Rng rng(11);
    return partition(randomMatrix(n, density, rng), p);
}

/** The default platform, one streaming the vector, one compressing. */
std::vector<std::pair<std::string, HlsConfig>>
pricingConfigs()
{
    HlsConfig vector;
    vector.streamlines = 1; // the vector segment cannot ride a free lane
    vector.streamVectorOperand = true;
    HlsConfig compressed;
    compressed.secondStageCompression = true;
    return {{"default", HlsConfig()},
            {"vector", vector},
            {"second stage", compressed}};
}

TEST(ParallelPipelineTest, SinglePeMatchesItself)
{
    const auto parts = sampleParts();
    const auto result = runParallel(parts, FormatKind::CSR, 1);
    EXPECT_EQ(result.peCount, 1u);
    EXPECT_DOUBLE_EQ(result.speedup, 1.0);
    EXPECT_EQ(result.peCycles.size(), 1u);
    EXPECT_EQ(result.totalCycles,
              std::max(result.computeBoundCycles,
                       result.memoryBoundCycles));
}

TEST(ParallelPipelineTest, SinglePeMatchesPipeline)
{
    // One PE is one Figure-2 pipeline: its compute bound is the
    // analytic model's end-to-end cycles on every platform.
    const auto parts = sampleParts();
    for (const auto &[name, config] : pricingConfigs()) {
        for (FormatKind kind : paperFormats()) {
            const auto single = runParallel(
                parts, kind, 1, ScheduleKind::RoundRobin, config);
            EXPECT_EQ(single.computeBoundCycles,
                      runPipeline(parts, kind, config).totalCycles)
                << name << " " << formatName(kind);
        }
    }
}

TEST(ParallelPipelineTest, ZeroPesIsFatal)
{
    const auto parts = sampleParts();
    EXPECT_THROW(runParallel(parts, FormatKind::CSR, 0), FatalError);
}

TEST(ParallelPipelineTest, SpeedupGrowsThenSaturates)
{
    const auto parts = sampleParts(256, 0.05, 16);
    double prev = 0.0;
    for (Index pes : {1u, 2u, 4u}) {
        const auto result = runParallel(parts, FormatKind::CSR, pes);
        EXPECT_GE(result.speedup + 1e-9, prev);
        prev = result.speedup;
    }
    // Speedup can never exceed the PE count.
    const auto result = runParallel(parts, FormatKind::CSR, 4);
    EXPECT_LE(result.speedup, 4.0 + 1e-9);
}

TEST(ParallelPipelineTest, SharedChannelEventuallyBinds)
{
    // Dense format moves the most bytes: with enough PEs the shared
    // DDR3 channel must become the bottleneck.
    const auto parts = sampleParts(256, 0.3, 16);
    const auto result = runParallel(parts, FormatKind::Dense, 16);
    EXPECT_TRUE(result.memoryBound);
    EXPECT_EQ(result.totalCycles, result.memoryBoundCycles);
}

TEST(ParallelPipelineTest, LoadBalancedBeatsRoundRobinOnSkew)
{
    // A workload with one huge tile and many small ones: LPT keeps
    // the huge tile alone.
    TripletMatrix m(64, 64);
    for (Index r = 0; r < 16; ++r)
        for (Index c = 0; c < 16; ++c)
            m.add(r, c, 1.0f); // tile (0,0) fully dense
    for (Index i = 0; i < 48; ++i)
        m.add(16 + i, (i * 7) % 64, 1.0f);
    m.finalize();
    const auto parts = partition(m, 16);

    const auto rr = runParallel(parts, FormatKind::CSR, 4,
                                ScheduleKind::RoundRobin);
    const auto lb = runParallel(parts, FormatKind::CSR, 4,
                                ScheduleKind::LoadBalanced);
    EXPECT_LE(lb.computeBoundCycles, rr.computeBoundCycles);
}

TEST(ParallelPipelineTest, PeCyclesSumConservesWork)
{
    // Total steady cycles across PEs equals the single-PE steady sum
    // (fill/drain differ, so compare within slack).
    const auto parts = sampleParts(128, 0.1, 16);
    const auto one = runParallel(parts, FormatKind::COO, 1);
    const auto four = runParallel(parts, FormatKind::COO, 4);
    Cycles sum_four = 0;
    for (Cycles c : four.peCycles)
        sum_four += c;
    // Parallel fill/drain overheads add at most peCount * (one tile).
    EXPECT_GE(sum_four + 4 * 2000, one.peCycles[0]);
}

TEST(ParallelPipelineTest, EmptyMatrix)
{
    TripletMatrix m(32, 32);
    m.finalize();
    const auto parts = partition(m, 16);
    const auto result = runParallel(parts, FormatKind::CSR, 4);
    EXPECT_EQ(result.totalCycles, 0u);
    EXPECT_DOUBLE_EQ(result.speedup, 1.0);
}

TEST(ParallelPipelineTest, MorePesThanTiles)
{
    TripletMatrix m(16, 16);
    m.add(0, 0, 1.0f);
    m.finalize();
    const auto parts = partition(m, 16);
    const auto result = runParallel(parts, FormatKind::CSR, 8);
    // Only one PE does work; others idle.
    Index busy = 0;
    for (Cycles c : result.peCycles)
        busy += c > 0;
    EXPECT_EQ(busy, 1u);
}

TEST(ParallelPipelineTest, ResultMetadata)
{
    const auto parts = sampleParts();
    const auto result = runParallel(parts, FormatKind::LIL, 2,
                                    ScheduleKind::LoadBalanced);
    EXPECT_EQ(result.format, FormatKind::LIL);
    EXPECT_EQ(result.partitionSize, 16u);
    EXPECT_EQ(result.schedule, ScheduleKind::LoadBalanced);
    EXPECT_GT(result.seconds, 0.0);
}

} // namespace
} // namespace copernicus
