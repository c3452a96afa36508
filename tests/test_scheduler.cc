/**
 * @file
 * Tests for per-partition adaptive format selection and the mixed
 * pipeline.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/status.hh"
#include "core/scheduler.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

Partitioning
sampleParts(double density = 0.05)
{
    Rng rng(77);
    return partition(randomMatrix(128, density, rng), 16);
}

/** The default platform and one with second-stage compression. */
std::vector<std::pair<std::string, HlsConfig>>
planConfigs()
{
    HlsConfig compressed;
    compressed.secondStageCompression = true;
    return {{"default", HlsConfig()}, {"second stage", compressed}};
}

/** What @p objective minimizes, read off the pipeline's own timing. */
std::uint64_t
objectiveScore(const PartitionTiming &timing, SchedulerObjective objective)
{
    switch (objective) {
      case SchedulerObjective::Bottleneck:
        return timing.bottleneckCycles();
      case SchedulerObjective::Compute:
        return timing.computeCycles;
      case SchedulerObjective::Bytes:
        return timing.totalBytes;
    }
    return 0;
}

TEST(MixedPipelineTest, LengthMismatchIsFatal)
{
    const auto parts = sampleParts();
    std::vector<FormatKind> short_plan(parts.tiles.size() - 1,
                                       FormatKind::CSR);
    EXPECT_THROW(runPipelineMixed(parts, short_plan), FatalError);
}

TEST(MixedPipelineTest, UniformPlanMatchesFixedPipeline)
{
    const auto parts = sampleParts();
    const std::vector<FormatKind> plan(parts.tiles.size(),
                                       FormatKind::COO);
    const auto mixed = runPipelineMixed(parts, plan);
    const auto fixed = runPipeline(parts, FormatKind::COO);
    EXPECT_EQ(mixed.totalCycles, fixed.totalCycles);
    EXPECT_EQ(mixed.totalBytes, fixed.totalBytes);
    EXPECT_EQ(mixed.format, FormatKind::COO);
}

TEST(MixedPipelineTest, MajorityFormatReported)
{
    const auto parts = sampleParts();
    ASSERT_GE(parts.tiles.size(), 3u);
    std::vector<FormatKind> plan(parts.tiles.size(), FormatKind::CSR);
    plan[0] = FormatKind::DIA;
    const auto result = runPipelineMixed(parts, plan);
    EXPECT_EQ(result.format, FormatKind::CSR);
}

TEST(PlanFormatsTest, EmptyCandidatesIsFatal)
{
    const auto parts = sampleParts();
    EXPECT_THROW(planFormats(parts, {}), FatalError);
}

TEST(PlanFormatsTest, SingleCandidateIsChosenEverywhere)
{
    const auto parts = sampleParts();
    const auto plan = planFormats(parts, {FormatKind::LIL});
    EXPECT_EQ(plan.perTile.size(), parts.tiles.size());
    for (FormatKind kind : plan.perTile)
        EXPECT_EQ(kind, FormatKind::LIL);
    EXPECT_EQ(plan.histogram.at(FormatKind::LIL), parts.tiles.size());
}

TEST(PlanFormatsTest, HistogramSumsToTileCount)
{
    const auto parts = sampleParts();
    const auto plan = planFormats(parts, paperFormats());
    std::size_t total = 0;
    for (const auto &[kind, count] : plan.histogram)
        total += count;
    EXPECT_EQ(total, parts.tiles.size());
}

TEST(PlanFormatsTest, BytesObjectivePicksSmallestEncoding)
{
    // Under every objective (bytes included) and platform, each tile's
    // choice scores minimal in runPipeline's own per-partition timing.
    Rng rng(21);
    const std::vector<std::pair<std::string, Partitioning>> inputs = {
        {"random 0.05", sampleParts()},
        {"random 0.2", sampleParts(0.2)},
        {"band 2", partition(bandMatrix(128, 2, rng), 16)}};
    for (const auto &[config_name, config] : planConfigs()) {
        for (const auto &[input_name, parts] : inputs) {
            std::map<FormatKind, PipelineResult> fixed;
            for (FormatKind kind : paperFormats())
                fixed.emplace(kind, runPipeline(parts, kind, config));
            for (SchedulerObjective objective :
                 {SchedulerObjective::Bottleneck,
                  SchedulerObjective::Compute,
                  SchedulerObjective::Bytes}) {
                const auto plan = planFormats(parts, paperFormats(),
                                              objective, config);
                for (std::size_t i = 0; i < parts.tiles.size(); ++i) {
                    std::uint64_t best = UINT64_MAX;
                    for (const auto &[kind, result] : fixed) {
                        best = std::min(
                            best, objectiveScore(result.partitions[i],
                                                 objective));
                    }
                    EXPECT_EQ(objectiveScore(fixed.at(plan.perTile[i])
                                                 .partitions[i],
                                             objective),
                              best)
                        << config_name << ", " << input_name
                        << ", objective " << static_cast<int>(objective)
                        << ": tile " << i << " chose "
                        << formatName(plan.perTile[i]);
                }
            }
        }
    }
}

TEST(AdaptiveTest, NeverWorseThanEveryFixedChoice)
{
    // The adaptive bottleneck plan must beat-or-match the best fixed
    // format on total steady cycles (it optimizes exactly that,
    // tile by tile), with or without the second stage.
    for (const auto &[name, config] : planConfigs()) {
        for (double density : {0.02, 0.2}) {
            const auto parts = sampleParts(density);
            const auto plan = planFormats(
                parts, paperFormats(), SchedulerObjective::Bottleneck,
                config);
            const auto adaptive =
                runPipelineMixed(parts, plan.perTile, config);
            for (FormatKind kind : paperFormats()) {
                const auto fixed = runPipeline(parts, kind, config);
                EXPECT_LE(adaptive.totalCycles, fixed.totalCycles)
                    << name << ", density " << density << " vs "
                    << formatName(kind);
            }
        }
    }
}

TEST(AdaptiveTest, MixedStructurePicksDifferentFormats)
{
    // A matrix that is diagonal in one corner and dense random in
    // another should not get a single uniform answer under the bytes
    // objective.
    Rng rng(88);
    TripletMatrix m(64, 64);
    for (Index i = 0; i < 32; ++i)
        m.add(i, i, 1.0f); // diagonal tiles
    for (Index r = 32; r < 64; ++r)
        for (Index c = 32; c < 64; ++c)
            if (rng.chance(0.6))
                m.add(r, c, 1.0f); // dense tiles
    m.finalize();
    const auto parts = partition(m, 16);
    const auto plan = planFormats(parts, paperFormats(),
                                  SchedulerObjective::Bytes);
    EXPECT_GE(plan.histogram.size(), 2u);
}

TEST(AdaptiveTest, ComputeObjectiveMinimizesComputeCycles)
{
    const auto parts = sampleParts(0.1);
    const auto plan = planFormats(parts, paperFormats(),
                                  SchedulerObjective::Compute);
    const auto adaptive = runPipelineMixed(parts, plan.perTile);
    for (FormatKind kind : paperFormats()) {
        const auto fixed = runPipeline(parts, kind);
        EXPECT_LE(adaptive.totalComputeCycles,
                  fixed.totalComputeCycles)
            << formatName(kind);
    }
}

} // namespace
} // namespace copernicus
