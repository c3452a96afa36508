/**
 * @file
 * Core-layer tests: the Study runner and the format advisor.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>

#include "common/rng.hh"
#include "core/advisor.hh"
#include "core/study.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

Study
smallStudy()
{
    StudyConfig cfg;
    cfg.partitionSizes = {8, 16};
    cfg.formats = {FormatKind::Dense, FormatKind::CSR, FormatKind::COO};
    Study study(cfg);
    Rng rng(1);
    study.addWorkload("random", randomMatrix(64, 0.05, rng));
    study.addWorkload("band", bandMatrix(64, 4, rng));
    return study;
}

TEST(StudyTest, RowCountIsFullCross)
{
    const Study study = smallStudy();
    const auto result = study.run();
    EXPECT_EQ(result.rows.size(), 2u * 2u * 3u);
}

TEST(StudyTest, EmptyConfigIsFatal)
{
    StudyConfig cfg;
    cfg.partitionSizes.clear();
    EXPECT_THROW(Study{cfg}, FatalError);
    StudyConfig cfg2;
    cfg2.formats.clear();
    EXPECT_THROW(Study{cfg2}, FatalError);
}

TEST(StudyTest, DuplicateWorkloadNameIsFatal)
{
    Study study(StudyConfig{});
    Rng rng(2);
    study.addWorkload("w", randomMatrix(16, 0.1, rng));
    EXPECT_THROW(study.addWorkload("w", randomMatrix(16, 0.1, rng)),
                 FatalError);
}

TEST(StudyTest, DenseRowsHaveSigmaOne)
{
    const auto result = smallStudy().run();
    for (const auto &row : result.rows) {
        if (row.format == FormatKind::Dense) {
            EXPECT_DOUBLE_EQ(row.meanSigma, 1.0);
        }
    }
}

TEST(StudyTest, RowsCarryResourceAndPowerEstimates)
{
    const auto result = smallStudy().run();
    for (const auto &row : result.rows) {
        EXPECT_GT(row.resources.bram18k, 0.0);
        EXPECT_GT(row.power.dynamicW(), 0.0);
        EXPECT_GT(row.power.staticW, 0.0);
    }
}

TEST(StudyTest, AggregateByFormatAveragesAndSums)
{
    const auto result = smallStudy().run();
    const auto metrics = result.aggregateByFormat();
    ASSERT_EQ(metrics.size(), 3u);
    for (const auto &m : metrics) {
        EXPECT_GT(m.totalSeconds, 0.0);
        EXPECT_GT(m.throughput, 0.0);
        if (m.format == FormatKind::Dense) {
            EXPECT_DOUBLE_EQ(m.meanSigma, 1.0);
        }
        if (m.format == FormatKind::COO) {
            EXPECT_NEAR(m.bandwidthUtilization, 1.0 / 3.0, 1e-12);
        }
    }
}

TEST(StudyTest, CsvExportHasHeaderAndAllRows)
{
    const auto result = smallStudy().run();
    std::ostringstream out;
    result.writeCsv(out);
    const std::string text = out.str();
    // Header plus one line per row.
    std::size_t lines = 0;
    for (char ch : text)
        lines += ch == '\n';
    EXPECT_EQ(lines, result.rows.size() + 1);
    EXPECT_EQ(text.rfind("workload,format,p,sigma", 0), 0u);
    EXPECT_NE(text.find("DENSE"), std::string::npos);
    EXPECT_NE(text.find("random"), std::string::npos);
}

TEST(StudyTest, CsvFileRoundTrip)
{
    const auto result = smallStudy().run();
    const std::string path = testing::TempDir() + "/copernicus_study.csv";
    result.writeCsvFile(path);
    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::string header;
    std::getline(in, header);
    EXPECT_EQ(header.rfind("workload,format", 0), 0u);
}

TEST(StudyTest, WorkloadCountAccessor)
{
    const Study study = smallStudy();
    EXPECT_EQ(study.workloads(), 2u);
}

TEST(AdvisorTest, GoalNamesArePrintable)
{
    EXPECT_EQ(goalName(AdvisorGoal::Latency), "latency");
    EXPECT_EQ(goalName(AdvisorGoal::Power), "power");
}

MatrixStats
statsFor(const TripletMatrix &m)
{
    return computeStats(m);
}

TEST(AdvisorTest, SparseGraphLatencyPicksCoo)
{
    Rng rng(3);
    const auto stats = statsFor(rmatGraph(512, 2048, rng));
    const auto rec = advise(stats, AdvisorGoal::Latency);
    EXPECT_EQ(rec.format, FormatKind::COO);
    EXPECT_FALSE(rec.rationale.empty());
    EXPECT_FALSE(rec.requiresTailoredEngine);
}

TEST(AdvisorTest, BandMatrixBandwidthWithTailoredEnginePicksDia)
{
    Rng rng(4);
    const auto stats = statsFor(bandMatrix(512, 8, rng));
    const auto rec = advise(stats, AdvisorGoal::Bandwidth, true);
    EXPECT_EQ(rec.format, FormatKind::DIA);
    EXPECT_TRUE(rec.requiresTailoredEngine);
    EXPECT_EQ(rec.partitionSize, 32u);
}

TEST(AdvisorTest, BandMatrixWithoutTailoredEngineAvoidsDia)
{
    // Section 8: generic formats beat DIA on generic hardware.
    Rng rng(5);
    const auto stats = statsFor(bandMatrix(512, 8, rng));
    for (AdvisorGoal goal :
         {AdvisorGoal::Latency, AdvisorGoal::Throughput,
          AdvisorGoal::Power, AdvisorGoal::Bandwidth,
          AdvisorGoal::Balanced}) {
        const auto rec = advise(stats, goal, false);
        EXPECT_NE(rec.format, FormatKind::DIA) << goalName(goal);
    }
}

TEST(AdvisorTest, DenseMlWorkloadUsesSmallPartitions)
{
    Rng rng(6);
    const auto stats = statsFor(prunedLayer(128, 128, 0.35, rng));
    const auto rec = advise(stats, AdvisorGoal::Latency);
    EXPECT_LE(rec.partitionSize, 16u);
    EXPECT_EQ(rec.format, FormatKind::BCSR);
}

TEST(AdvisorTest, PowerGoalPrefersCooForSparse)
{
    Rng rng(7);
    const auto stats = statsFor(randomMatrix(512, 0.005, rng));
    const auto rec = advise(stats, AdvisorGoal::Power);
    EXPECT_EQ(rec.format, FormatKind::COO);
}

TEST(AdvisorTest, AlternativesAreNeverThePrimary)
{
    Rng rng(8);
    const auto stats = statsFor(randomMatrix(256, 0.01, rng));
    for (AdvisorGoal goal :
         {AdvisorGoal::Latency, AdvisorGoal::Throughput,
          AdvisorGoal::Power, AdvisorGoal::Bandwidth,
          AdvisorGoal::Balanced}) {
        const auto rec = advise(stats, goal);
        for (FormatKind alt : rec.alternatives)
            EXPECT_NE(alt, rec.format) << goalName(goal);
    }
}

} // namespace
} // namespace copernicus
