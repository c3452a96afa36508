/**
 * @file
 * Tests for the event-driven pipeline simulator, including the bounds
 * that tie it to the analytic steady-state model.
 */

#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/status.hh"
#include "pipeline/event_sim.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

Partitioning
sampleParts(double density = 0.08)
{
    Rng rng(21);
    return partition(randomMatrix(128, density, rng), 16);
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

TEST(EventSimTest, EmptyMatrix)
{
    TripletMatrix m(32, 32);
    m.finalize();
    const auto result = runEventSim(partition(m, 16), FormatKind::CSR);
    EXPECT_EQ(result.totalCycles, 0u);
    EXPECT_TRUE(result.schedule.empty());
}

TEST(EventSimTest, StagesAreCausallyOrderedPerTile)
{
    const auto result = runEventSim(sampleParts(), FormatKind::CSR);
    for (const auto &slot : result.schedule) {
        EXPECT_LE(slot.readStart, slot.readEnd);
        EXPECT_LE(slot.readEnd, slot.computeStart);
        EXPECT_LE(slot.computeStart, slot.computeEnd);
        EXPECT_LE(slot.computeEnd, slot.writeStart);
        EXPECT_LE(slot.writeStart, slot.writeEnd);
    }
}

TEST(EventSimTest, StagesNeverOverlapWithinAStage)
{
    const auto result = runEventSim(sampleParts(), FormatKind::COO);
    for (std::size_t i = 1; i < result.schedule.size(); ++i) {
        EXPECT_GE(result.schedule[i].readStart,
                  result.schedule[i - 1].readEnd);
        EXPECT_GE(result.schedule[i].computeStart,
                  result.schedule[i - 1].computeEnd);
        EXPECT_GE(result.schedule[i].writeStart,
                  result.schedule[i - 1].writeEnd);
    }
}

TEST(EventSimTest, DoubleBufferingConstraintHolds)
{
    const auto result = runEventSim(sampleParts(), FormatKind::LIL);
    for (std::size_t i = 2; i < result.schedule.size(); ++i) {
        EXPECT_GE(result.schedule[i].readStart,
                  result.schedule[i - 2].computeEnd);
    }
}

/** Bounds against the analytic model, for every paper format. */
class EventSimBoundsTest : public testing::TestWithParam<FormatKind>
{
};

TEST_P(EventSimBoundsTest, BracketsAnalyticModel)
{
    const auto parts = sampleParts();
    const auto event = runEventSim(parts, GetParam());
    const auto analytic = runPipeline(parts, GetParam());

    // Lower bound: no stage can finish before its own busy total.
    EXPECT_GE(event.totalCycles, event.readBusy);
    EXPECT_GE(event.totalCycles, event.computeBusy);
    EXPECT_GE(event.totalCycles, event.writeBusy);

    // Upper bound: the analytic sum-of-bottlenecks (+fill/drain)
    // bounds the event sim up to the double-buffer constraint, which
    // can add at most a few percent of extra serialization (read i
    // also waits on compute i-2).
    EXPECT_LE(static_cast<double>(event.totalCycles),
              1.05 * static_cast<double>(analytic.totalCycles) + 100.0)
        << formatName(GetParam());
}

TEST_P(EventSimBoundsTest, BusyTotalsMatchAnalyticStageSums)
{
    // Both models price partitions alike on every platform.
    const auto parts = sampleParts();
    for (const auto &[name, config] : pricingConfigs()) {
        const auto event = runEventSim(parts, GetParam(), config);
        const auto analytic = runPipeline(parts, GetParam(), config);
        EXPECT_EQ(event.readBusy, analytic.totalMemoryCycles) << name;
        EXPECT_EQ(event.computeBusy, analytic.totalComputeCycles)
            << name;
    }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, EventSimBoundsTest,
                         testing::ValuesIn(paperFormats()),
                         [](const testing::TestParamInfo<FormatKind> &i) {
                             return std::string(formatName(i.param));
                         });

TEST(EventSimTest, ComputeBoundWorkloadHasReadStalls)
{
    // CSC is wildly compute-bound: the reader must pause (the paper's
    // "pauses in data transfer").
    const auto result = runEventSim(sampleParts(0.3), FormatKind::CSC);
    EXPECT_GT(result.readStall, 0u);
}

TEST(EventSimTest, MemoryBoundWorkloadHasComputeStalls)
{
    // The dense format at a big partition is memory-bound: compute
    // idles (the paper's "idle computation").
    Rng rng(22);
    const auto parts = partition(randomMatrix(128, 0.3, rng), 32);
    const auto result = runEventSim(parts, FormatKind::Dense);
    EXPECT_GT(result.computeStall, 0u);
}

TEST(EventSimTest, ZeroBuffersIsFatal)
{
    EXPECT_THROW(runEventSim(sampleParts(), FormatKind::CSR,
                             HlsConfig(), defaultRegistry(), 0),
                 FatalError);
}

TEST(EventSimTest, MoreInputBuffersNeverHurt)
{
    const auto parts = sampleParts(0.15);
    Cycles prev = ~Cycles(0);
    for (Index buffers : {1u, 2u, 4u, 8u}) {
        const auto result = runEventSim(parts, FormatKind::CSC,
                                        HlsConfig(), defaultRegistry(),
                                        buffers);
        EXPECT_LE(result.totalCycles, prev) << buffers << " buffers";
        prev = result.totalCycles;
    }
}

TEST(EventSimTest, SingleBufferSerializesReadBehindCompute)
{
    // With one buffer, read i must wait for compute i-1 entirely.
    const auto parts = sampleParts();
    const auto result = runEventSim(parts, FormatKind::CSR,
                                    HlsConfig(), defaultRegistry(), 1);
    for (std::size_t i = 1; i < result.schedule.size(); ++i) {
        EXPECT_GE(result.schedule[i].readStart,
                  result.schedule[i - 1].computeEnd);
    }
}

TEST(EventSimTest, SingleTileTotalsAreExact)
{
    TripletMatrix m(16, 16);
    m.add(3, 4, 1.0f);
    m.finalize();
    const auto parts = partition(m, 16);
    const auto result = runEventSim(parts, FormatKind::COO);
    ASSERT_EQ(result.schedule.size(), 1u);
    const auto &slot = result.schedule.front();
    EXPECT_EQ(slot.readStart, 0u);
    EXPECT_EQ(result.totalCycles, slot.writeEnd);
    EXPECT_EQ(result.totalCycles,
              result.readBusy + result.computeBusy + result.writeBusy);
}

} // namespace
} // namespace copernicus
