/**
 * @file
 * Parameterized invariants over the full (format x partition size)
 * design space: every characterization row a Study produces must obey
 * the metric identities regardless of the design point, and all 20
 * SuiteSparse surrogates must survive a full row evaluation.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <tuple>

#include "common/rng.hh"
#include "core/study.hh"
#include "workloads/generators.hh"
#include "workloads/suite_catalog.hh"

namespace copernicus {
namespace {

using DesignPoint = std::tuple<FormatKind, Index>;

class StudyInvariants : public testing::TestWithParam<DesignPoint>
{
  protected:
    /** One Study::run over the whole design space, shared by all. */
    static const StudyResult &
    sharedRun()
    {
        static const StudyResult result = [] {
            StudyConfig cfg;
            cfg.formats = allFormats();
            Study s(cfg);
            Rng rng(2026);
            s.addWorkload("random", randomMatrix(96, 0.08, rng));
            return s.run();
        }();
        return result;
    }
};

TEST_P(StudyInvariants, MetricIdentitiesHold)
{
    const FormatKind kind = std::get<0>(GetParam());
    const Index p = std::get<1>(GetParam());
    const std::vector<StudyRow> &rows = sharedRun().rows;
    const auto found =
        std::find_if(rows.begin(), rows.end(), [&](const StudyRow &r) {
            return r.format == kind && r.partitionSize == p;
        });
    ASSERT_NE(found, rows.end());
    const StudyRow &row = *found;

    // Identities every row must satisfy.
    EXPECT_GT(row.partitions, 0u);
    EXPECT_GT(row.totalCycles, 0u);
    EXPECT_GT(row.meanSigma, 0.0);
    EXPECT_GE(row.bandwidthUtilization, 0.0);
    EXPECT_LE(row.bandwidthUtilization, 1.0);
    EXPECT_GT(row.totalBytes, 0u);
    EXPECT_GT(row.seconds, 0.0);
    EXPECT_NEAR(row.throughput,
                static_cast<double>(row.totalBytes) / row.seconds,
                row.throughput * 1e-9);
    EXPECT_GT(row.balanceRatio, 0.0);
    // Resources and power are populated for every design point.
    EXPECT_GT(row.resources.bram18k, 0.0);
    EXPECT_GT(row.power.dynamicW(), 0.0);
    EXPECT_GT(row.power.staticW, 0.0);

    if (kind == FormatKind::Dense) {
        EXPECT_DOUBLE_EQ(row.meanSigma, 1.0);
    }
    if (kind == FormatKind::COO || kind == FormatKind::DOK) {
        EXPECT_NEAR(row.bandwidthUtilization, 1.0 / 3.0, 1e-12);
    }

    // The pipeline can never move data faster than the memory
    // interface's peak (2 lanes x 8 B x cycle).
    const double peak_bytes_per_cycle = 16.0;
    EXPECT_LE(static_cast<double>(row.totalBytes),
              peak_bytes_per_cycle *
                  static_cast<double>(row.totalCycles));
}

INSTANTIATE_TEST_SUITE_P(
    DesignSpace, StudyInvariants,
    testing::Combine(testing::ValuesIn(allFormats()),
                     testing::Values(Index(8), Index(16), Index(32))),
    [](const testing::TestParamInfo<DesignPoint> &info) {
        return std::string(formatName(std::get<0>(info.param))) + "_p" +
               std::to_string(std::get<1>(info.param));
    });

/** All 20 surrogates run one full characterization row. */
class SuiteSurrogateRow : public testing::TestWithParam<std::string>
{
};

TEST_P(SuiteSurrogateRow, CharacterizesCleanly)
{
    const auto &info = suiteMatrix(GetParam());
    SuiteMatrixInfo scaled = info;
    scaled.surrogateDim = std::max<Index>(512, info.surrogateDim / 4);
    const auto matrix = scaled.generate(314159);
    ASSERT_GT(matrix.nnz(), 0u);

    StudyConfig cfg;
    cfg.partitionSizes = {16};
    cfg.formats = {FormatKind::Dense, FormatKind::CSR, FormatKind::COO};
    Study study(cfg);
    study.addWorkload(info.id, matrix);
    const auto result = study.run();
    ASSERT_EQ(result.rows.size(), 3u);
    for (const auto &row : result.rows) {
        EXPECT_GT(row.partitions, 0u) << info.id;
        EXPECT_GT(row.totalCycles, 0u) << info.id;
        if (row.format == FormatKind::Dense) {
            EXPECT_DOUBLE_EQ(row.meanSigma, 1.0) << info.id;
        }
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllTwenty, SuiteSurrogateRow, [] {
        std::vector<std::string> ids;
        for (const auto &info : suiteCatalog())
            ids.push_back(info.id);
        return testing::ValuesIn(ids);
    }());

} // namespace
} // namespace copernicus
