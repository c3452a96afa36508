/**
 * @file
 * Unit tests for matrix and partition statistics (Figure 3 quantities).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <set>

#include "common/rng.hh"
#include "matrix/stats.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

TEST(MatrixStatsTest, DiagonalMatrix)
{
    Rng rng(1);
    const auto m = diagonalMatrix(16, rng);
    const auto stats = computeStats(m);
    EXPECT_EQ(stats.nnz, 16u);
    EXPECT_EQ(stats.bandwidth, 0u);
    EXPECT_EQ(stats.nonZeroDiagonals, 1u);
    EXPECT_DOUBLE_EQ(stats.diagonalFraction, 1.0);
    EXPECT_TRUE(stats.isDiagonal());
    EXPECT_EQ(stats.maxRowNnz, 1u);
    EXPECT_EQ(stats.nonZeroRows, 16u);
}

TEST(MatrixStatsTest, BandMatrixWidth4)
{
    Rng rng(2);
    const auto m = bandMatrix(32, 4, rng);
    const auto stats = computeStats(m);
    // k = 4 keeps |i - j| <= 2.
    EXPECT_EQ(stats.bandwidth, 2u);
    EXPECT_EQ(stats.nonZeroDiagonals, 5u);
    EXPECT_FALSE(stats.isDiagonal());
    EXPECT_EQ(stats.maxRowNnz, 5u);
}

TEST(MatrixStatsTest, EmptyMatrix)
{
    TripletMatrix m(8, 8);
    m.finalize();
    const auto stats = computeStats(m);
    EXPECT_EQ(stats.nnz, 0u);
    EXPECT_EQ(stats.nonZeroRows, 0u);
    EXPECT_EQ(stats.nonZeroDiagonals, 0u);
    EXPECT_FALSE(stats.isDiagonal());
    EXPECT_DOUBLE_EQ(stats.diagonalFraction, 0.0);
}

TEST(MatrixStatsTest, MeanRowNnz)
{
    TripletMatrix m(4, 4);
    m.add(0, 0, 1.0f);
    m.add(0, 1, 1.0f);
    m.add(2, 3, 1.0f);
    m.finalize();
    const auto stats = computeStats(m);
    EXPECT_DOUBLE_EQ(stats.meanRowNnz, 3.0 / 4.0);
    EXPECT_EQ(stats.maxRowNnz, 2u);
    EXPECT_EQ(stats.nonZeroRows, 2u);
}

TEST(MatrixStatsTest, OffDiagonalBandwidth)
{
    TripletMatrix m(10, 10);
    m.add(0, 9, 1.0f);
    m.finalize();
    const auto stats = computeStats(m);
    EXPECT_EQ(stats.bandwidth, 9u);
    EXPECT_DOUBLE_EQ(stats.diagonalFraction, 0.0);
}

/** Diagonal features of @p m recomputed over a std::set of col - row. */
void
expectDiagonalsMatchASetReference(const TripletMatrix &m)
{
    std::set<long long> diagonals;
    std::size_t onMain = 0;
    Index bandwidth = 0;
    for (const Triplet &t : m.triplets()) {
        const long long d = static_cast<long long>(t.col) - t.row;
        diagonals.insert(d);
        onMain += d == 0;
        bandwidth = std::max(bandwidth, static_cast<Index>(std::llabs(d)));
    }
    const MatrixStats stats = computeStats(m);
    EXPECT_EQ(stats.nonZeroDiagonals, diagonals.size())
        << m.rows() << "x" << m.cols();
    EXPECT_EQ(stats.bandwidth, bandwidth) << m.rows() << "x" << m.cols();
    EXPECT_DOUBLE_EQ(stats.diagonalFraction,
                     m.nnz() == 0 ? 0.0
                                  : static_cast<double>(onMain) / m.nnz())
        << m.rows() << "x" << m.cols();
}

TEST(MatrixStatsTest, DiagonalCountsMatchASetReference)
{
    Rng rng(23);
    for (double density : {0.01, 0.2, 0.9})
        expectDiagonalsMatchASetReference(randomMatrix(64, density, rng));
    // Wide and tall shapes, at random and with only their two extreme
    // diagonals (the bottom-left and top-right corners) populated.
    for (const auto &[rows, cols] :
         {std::pair<Index, Index>{3, 7}, std::pair<Index, Index>{7, 3}}) {
        for (double density : {0.3, 1.0}) {
            TripletMatrix m(rows, cols);
            for (Index r = 0; r < rows; ++r)
                for (Index c = 0; c < cols; ++c)
                    if (rng.chance(density))
                        m.add(r, c, 1.0f);
            m.finalize();
            expectDiagonalsMatchASetReference(m);
        }
        TripletMatrix corners(rows, cols);
        corners.add(rows - 1, 0, 1.0f);
        corners.add(0, cols - 1, 2.0f);
        corners.finalize();
        expectDiagonalsMatchASetReference(corners);
        EXPECT_EQ(computeStats(corners).nonZeroDiagonals, 2u);
        EXPECT_EQ(computeStats(corners).bandwidth,
                  std::max(rows, cols) - 1);
    }
}

TEST(PartitionStatsTest, FullTileIsFullyDense)
{
    Rng rng(3);
    // A fully dense matrix: every partition metric must be exactly 1.
    TripletMatrix m(16, 16);
    for (Index r = 0; r < 16; ++r)
        for (Index c = 0; c < 16; ++c)
            m.add(r, c, 1.0f);
    m.finalize();
    const auto stats = computePartitionStats(m, 8);
    EXPECT_EQ(stats.nonZeroTiles, 4u);
    EXPECT_EQ(stats.zeroTiles, 0u);
    EXPECT_DOUBLE_EQ(stats.avgPartitionDensity, 1.0);
    EXPECT_DOUBLE_EQ(stats.avgRowDensity, 1.0);
    EXPECT_DOUBLE_EQ(stats.avgNonZeroRowFraction, 1.0);
}

TEST(PartitionStatsTest, SingleEntryTile)
{
    TripletMatrix m(8, 8);
    m.add(0, 0, 1.0f);
    m.finalize();
    const auto stats = computePartitionStats(m, 8);
    EXPECT_EQ(stats.nonZeroTiles, 1u);
    EXPECT_DOUBLE_EQ(stats.avgPartitionDensity, 1.0 / 64.0);
    // One non-zero row containing 1 of 8 values.
    EXPECT_DOUBLE_EQ(stats.avgRowDensity, 1.0 / 8.0);
    EXPECT_DOUBLE_EQ(stats.avgNonZeroRowFraction, 1.0 / 8.0);
}

TEST(PartitionStatsTest, RowDensityExceedsPartitionDensity)
{
    // Fig. 3's point: non-zero rows are denser than partitions overall.
    Rng rng(4);
    const auto m = randomMatrix(128, 0.02, rng);
    const auto stats = computePartitionStats(m, 16);
    EXPECT_GE(stats.avgRowDensity, stats.avgPartitionDensity);
}

TEST(PartitionStatsTest, DiagonalMatrixPartitionShape)
{
    Rng rng(5);
    const auto m = diagonalMatrix(64, rng);
    const auto stats = computePartitionStats(m, 16);
    // Only the 4 diagonal tiles are non-zero; each has every row
    // non-zero with exactly one value.
    EXPECT_EQ(stats.nonZeroTiles, 4u);
    EXPECT_EQ(stats.zeroTiles, 12u);
    EXPECT_DOUBLE_EQ(stats.avgNonZeroRowFraction, 1.0);
    EXPECT_DOUBLE_EQ(stats.avgRowDensity, 1.0 / 16.0);
    EXPECT_DOUBLE_EQ(stats.avgPartitionDensity, 1.0 / 16.0);
}

TEST(PartitionStatsTest, EmptyPartitioning)
{
    TripletMatrix m(16, 16);
    m.finalize();
    const auto stats = computePartitionStats(m, 8);
    EXPECT_EQ(stats.nonZeroTiles, 0u);
    EXPECT_DOUBLE_EQ(stats.avgPartitionDensity, 0.0);
}

TEST(HistogramTest, RowNnzHistogramCountsRows)
{
    TripletMatrix m(5, 5);
    m.add(0, 0, 1.0f);
    m.add(0, 1, 1.0f);
    m.add(1, 2, 1.0f);
    m.add(3, 3, 1.0f);
    m.finalize();
    const auto histogram = rowNnzHistogram(m);
    EXPECT_EQ(histogram.at(0), 2u); // rows 2 and 4 empty
    EXPECT_EQ(histogram.at(1), 2u); // rows 1 and 3
    EXPECT_EQ(histogram.at(2), 1u); // row 0
    std::size_t total = 0;
    for (const auto &[nnz, count] : histogram)
        total += count;
    EXPECT_EQ(total, 5u);
}

TEST(HistogramTest, DiagonalMatrixHistogram)
{
    Rng rng(7);
    const auto m = diagonalMatrix(32, rng);
    const auto histogram = rowNnzHistogram(m);
    ASSERT_EQ(histogram.size(), 1u);
    EXPECT_EQ(histogram.at(1), 32u);
}

TEST(HistogramTest, TileDensityDecilesPartitionTiles)
{
    // One fully dense tile and one single-entry tile.
    TripletMatrix m(16, 16);
    for (Index r = 0; r < 8; ++r)
        for (Index c = 0; c < 8; ++c)
            m.add(r, c, 1.0f);
    m.add(8, 8, 1.0f);
    m.finalize();
    const auto deciles = tileDensityDeciles(partition(m, 8));
    EXPECT_EQ(deciles[9], 1u); // the dense tile (density 1)
    EXPECT_EQ(deciles[0], 1u); // the single-entry tile (1/64)
    std::size_t total = 0;
    for (std::size_t count : deciles)
        total += count;
    EXPECT_EQ(total, 2u);
}

TEST(HistogramTest, DecilesSumToNonZeroTiles)
{
    Rng rng(8);
    const auto m = randomMatrix(96, 0.05, rng);
    const auto parts = partition(m, 16);
    const auto deciles = tileDensityDeciles(parts);
    std::size_t total = 0;
    for (std::size_t count : deciles)
        total += count;
    EXPECT_EQ(total, parts.tiles.size());
}

TEST(PartitionStatsTest, DensityDecreasesWithPartitionSizeForDiagonal)
{
    Rng rng(6);
    const auto m = diagonalMatrix(64, rng);
    const auto s8 = computePartitionStats(m, 8);
    const auto s32 = computePartitionStats(m, 32);
    EXPECT_GT(s8.avgPartitionDensity, s32.avgPartitionDensity);
}

} // namespace
} // namespace copernicus
