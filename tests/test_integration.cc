/**
 * @file
 * Integration tests: end-to-end runs reproducing the paper's headline
 * qualitative claims on small workloads.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "common/rng.hh"
#include "core/scheduler.hh"
#include "core/study.hh"
#include "kernels/spmv.hh"
#include "matrix/reorder.hh"
#include "solvers/pagerank.hh"
#include "workloads/generators.hh"
#include "workloads/suite_catalog.hh"

namespace copernicus {
namespace {

TEST(IntegrationTest, SuiteSurrogateFullStudyRuns)
{
    StudyConfig cfg;
    cfg.partitionSizes = {16};
    Study study(cfg);
    study.addWorkload("DW", suiteMatrix("DW").generate(42));
    const auto result = study.run();
    EXPECT_EQ(result.rows.size(), paperFormats().size());
    for (const auto &row : result.rows) {
        EXPECT_GT(row.partitions, 0u);
        EXPECT_GT(row.totalCycles, 0u);
    }
}

TEST(IntegrationTest, CscSlowestOnDenseRandomWorkload)
{
    // Section 6.2: CSC is the slowest format, up to ~27x total latency.
    Rng rng(1);
    StudyConfig cfg;
    cfg.partitionSizes = {16};
    Study study(cfg);
    study.addWorkload("random", randomMatrix(96, 0.4, rng));
    const auto result = study.run();
    Cycles csc = 0, worst_other = 0;
    for (const auto &row : result.rows) {
        if (row.format == FormatKind::CSC)
            csc = row.totalCycles;
        else
            worst_other = std::max(worst_other, row.totalCycles);
    }
    EXPECT_GT(csc, worst_other);
}

TEST(IntegrationTest, SparseFormatsBeatDenseOnVerySparseData)
{
    // The entire point of compression: at SuiteSparse-like sparsity,
    // well-matched sparse formats finish faster than dense.
    Rng rng(2);
    StudyConfig cfg;
    cfg.partitionSizes = {16};
    Study study(cfg);
    study.addWorkload("sparse", randomMatrix(256, 0.005, rng));
    const auto result = study.run();
    Cycles dense = 0, coo = 0;
    for (const auto &row : result.rows) {
        if (row.format == FormatKind::Dense)
            dense = row.totalCycles;
        if (row.format == FormatKind::COO)
            coo = row.totalCycles;
    }
    EXPECT_LT(coo, dense);
}

TEST(IntegrationTest, DiaBandwidthBestOnDiagonalWorstOffBand)
{
    Rng rng(3);
    StudyConfig cfg;
    cfg.partitionSizes = {16};
    cfg.formats = {FormatKind::DIA, FormatKind::COO};
    Study study(cfg);
    study.addWorkload("diag", diagonalMatrix(128, rng));
    const auto result = study.run();
    double dia_util = 0, coo_util = 0;
    for (const auto &row : result.rows) {
        if (row.format == FormatKind::DIA)
            dia_util = row.bandwidthUtilization;
        else
            coo_util = row.bandwidthUtilization;
    }
    EXPECT_GT(dia_util, 0.9);
    EXPECT_NEAR(coo_util, 1.0 / 3.0, 1e-9);
}

TEST(IntegrationTest, PageRankAgreesWithPartitionedSpmvIteration)
{
    // The graph-analytics pipeline built on the library's own kernels:
    // one power-iteration step computed through compressed tiles matches
    // the CSR reference step.
    Rng rng(4);
    const auto g = rmatGraph(64, 256, rng);

    // Build the column-stochastic transition like pageRank does.
    std::vector<double> out(64, 0.0);
    for (const auto &t : g.triplets())
        out[t.row] += t.value;
    TripletMatrix transition(64, 64);
    for (const auto &t : g.triplets())
        if (out[t.row] > 0)
            transition.add(t.col, t.row,
                           static_cast<Value>(t.value / out[t.row]));
    transition.finalize();

    const CsrMatrix m(transition);
    std::vector<Value> rank(64, 1.0f / 64);
    const auto reference = m.multiply(rank);

    const auto parts = partition(transition, 16);
    const auto tiled = spmvPartitioned(parts, FormatKind::CSR, rank);
    for (std::size_t i = 0; i < reference.size(); ++i)
        EXPECT_NEAR(tiled[i], reference[i], 1e-4);
}

TEST(IntegrationTest, SigmaPartitionTrendsForEll)
{
    // Fig. 7: averaged over a workload class, ELL's sigma falls as the
    // partition grows.
    Rng rng(5);
    StudyConfig cfg;
    cfg.formats = {FormatKind::ELL};
    Study study(cfg);
    study.addWorkload("random", randomMatrix(128, 0.02, rng));
    study.addWorkload("band", bandMatrix(128, 4, rng));
    const auto result = study.run();

    double sigma_by_p[3] = {0, 0, 0};
    for (const auto &row : result.rows) {
        const int slot = row.partitionSize == 8
                             ? 0
                             : (row.partitionSize == 16 ? 1 : 2);
        sigma_by_p[slot] += row.meanSigma;
    }
    EXPECT_GT(sigma_by_p[0], sigma_by_p[1]);
    EXPECT_GT(sigma_by_p[1], sigma_by_p[2]);
}

TEST(IntegrationTest, Figure14NormalizationOverRealStudy)
{
    Rng rng(6);
    StudyConfig cfg;
    cfg.partitionSizes = {16};
    Study study(cfg);
    study.addWorkload("random", randomMatrix(96, 0.05, rng));
    const auto metrics = study.run().aggregateByFormat();
    const auto scores = normalizeSummary(metrics);
    ASSERT_EQ(scores.size(), paperFormats().size());

    // Someone must be best (1.0) and someone worst (0.0) per metric.
    double best_sigma = 0, worst_sigma = 1;
    for (const auto &s : scores) {
        best_sigma = std::max(best_sigma, s.sigma);
        worst_sigma = std::min(worst_sigma, s.sigma);
    }
    EXPECT_DOUBLE_EQ(best_sigma, 1.0);
    EXPECT_DOUBLE_EQ(worst_sigma, 0.0);
}

TEST(IntegrationTest, MlDensityCrossoverExists)
{
    // Section 8: above density ~0.1 the dense baseline becomes
    // competitive with (or beats) index-heavy sparse formats in total
    // latency; far below it, sparse wins. Check both regimes for CSR.
    Rng rng(7);
    StudyConfig cfg;
    cfg.partitionSizes = {16};
    cfg.formats = {FormatKind::Dense, FormatKind::CSR};
    Study dense_study(cfg);
    dense_study.addWorkload("dense_ml", prunedLayer(96, 96, 0.5, rng));
    Study sparse_study(cfg);
    sparse_study.addWorkload("sparse_ml", prunedLayer(96, 96, 0.01, rng));

    auto ratio = [](const StudyResult &r) {
        Cycles dense = 0, csr = 0;
        for (const auto &row : r.rows) {
            if (row.format == FormatKind::Dense)
                dense = row.totalCycles;
            else
                csr = row.totalCycles;
        }
        return static_cast<double>(csr) / static_cast<double>(dense);
    };
    const double at_half = ratio(dense_study.run());
    const double at_sparse = ratio(sparse_study.run());
    EXPECT_LT(at_sparse, 1.0); // sparse format wins when very sparse
    EXPECT_GT(at_half, at_sparse); // and loses ground as density grows
}

TEST(IntegrationTest, AdaptivePlanWinsOnSuiteSurrogate)
{
    // Real-world-shaped tiles disagree about the best format; the
    // adaptive plan must match or beat every fixed choice end to end.
    const auto m = suiteMatrix("DW").generate(7);
    const auto parts = partition(m, 16);
    const auto adaptive =
        runPipelineMixed(parts, planFormats(parts, paperFormats()).perTile);
    for (FormatKind kind : paperFormats()) {
        EXPECT_LE(adaptive.totalCycles,
                  runPipeline(parts, kind).totalCycles)
            << formatName(kind);
    }
}

TEST(IntegrationTest, RcmEnablesDiaOnScatteredBandStructure)
{
    // Scramble a band matrix, then show RCM restores DIA's bandwidth
    // utilization - Section 6.1's preprocessing recommendation as an
    // executable claim.
    Rng rng(8);
    const auto band = bandMatrix(128, 4, rng);
    std::vector<Index> scramble(128);
    for (Index i = 0; i < 128; ++i)
        scramble[i] = i;
    for (Index i = 127; i > 0; --i)
        std::swap(scramble[i],
                  scramble[static_cast<Index>(rng.below(i + 1))]);
    const auto scrambled = permuteSymmetric(band, scramble);
    const auto recovered = rcmReorder(scrambled);

    const auto before = runPipeline(partition(scrambled, 16),
                                    FormatKind::DIA);
    const auto after = runPipeline(partition(recovered, 16),
                                   FormatKind::DIA);
    EXPECT_GT(after.bandwidthUtilization,
              2.0 * before.bandwidthUtilization);
    EXPECT_LT(after.totalCycles, before.totalCycles);
}

TEST(IntegrationTest, StudyCsvMatchesRowCount)
{
    StudyConfig cfg;
    cfg.partitionSizes = {16};
    Study study(cfg);
    Rng rng(9);
    study.addWorkload("w", randomMatrix(64, 0.05, rng));
    const auto result = study.run();
    std::ostringstream out;
    result.writeCsv(out);
    std::size_t lines = 0;
    for (char ch : out.str())
        lines += ch == '\n';
    EXPECT_EQ(lines, result.rows.size() + 1);
}

} // namespace
} // namespace copernicus
