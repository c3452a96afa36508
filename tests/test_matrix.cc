/**
 * @file
 * Unit tests for TripletMatrix, DenseMatrix and CsrMatrix.
 */

#include <gtest/gtest.h>

#include "common/status.hh"
#include "matrix/csr_matrix.hh"
#include "matrix/dense_matrix.hh"
#include "matrix/triplet_matrix.hh"

namespace copernicus {
namespace {

TEST(TripletMatrixTest, EmptyMatrixIsFinalized)
{
    TripletMatrix m(4, 4);
    EXPECT_TRUE(m.finalized());
    EXPECT_EQ(m.nnz(), 0u);
    EXPECT_EQ(m.density(), 0.0);
}

TEST(TripletMatrixTest, ZeroDimensionsRejected)
{
    EXPECT_THROW(TripletMatrix(0, 4), FatalError);
    EXPECT_THROW(TripletMatrix(4, 0), FatalError);
}

TEST(TripletMatrixTest, AddClearsFinalizedFlag)
{
    TripletMatrix m(4, 4);
    m.add(1, 2, 3.0f);
    EXPECT_FALSE(m.finalized());
    m.finalize();
    EXPECT_TRUE(m.finalized());
}

TEST(TripletMatrixTest, OutOfRangeAddPanics)
{
    TripletMatrix m(4, 4);
    EXPECT_THROW(m.add(4, 0, 1.0f), PanicError);
    EXPECT_THROW(m.add(0, 4, 1.0f), PanicError);
}

TEST(TripletMatrixTest, FinalizeSortsRowMajor)
{
    TripletMatrix m(3, 3);
    m.add(2, 1, 1.0f);
    m.add(0, 2, 2.0f);
    m.add(0, 0, 3.0f);
    m.add(1, 1, 4.0f);
    m.finalize();
    const auto &ts = m.triplets();
    ASSERT_EQ(ts.size(), 4u);
    EXPECT_EQ(ts[0].row, 0u);
    EXPECT_EQ(ts[0].col, 0u);
    EXPECT_EQ(ts[1].row, 0u);
    EXPECT_EQ(ts[1].col, 2u);
    EXPECT_EQ(ts[2].row, 1u);
    EXPECT_EQ(ts[3].row, 2u);
}

TEST(TripletMatrixTest, FinalizeSumsDuplicates)
{
    TripletMatrix m(2, 2);
    m.add(0, 0, 1.0f);
    m.add(0, 0, 2.5f);
    m.finalize();
    EXPECT_EQ(m.nnz(), 1u);
    EXPECT_FLOAT_EQ(m.at(0, 0), 3.5f);
}

TEST(TripletMatrixTest, FinalizeDropsCancelledEntries)
{
    TripletMatrix m(2, 2);
    m.add(1, 1, 2.0f);
    m.add(1, 1, -2.0f);
    m.add(0, 1, 1.0f);
    m.finalize();
    EXPECT_EQ(m.nnz(), 1u);
    EXPECT_FLOAT_EQ(m.at(1, 1), 0.0f);
    EXPECT_FLOAT_EQ(m.at(0, 1), 1.0f);
}

TEST(TripletMatrixTest, FinalizeOfRowMajorInputStillSumsAndDrops)
{
    // Strictly increasing input skips the sort; zeros still drop.
    TripletMatrix sorted(2, 3);
    sorted.add(0, 0, 1.0f);
    sorted.add(0, 2, 0.0f);
    sorted.add(1, 1, 2.0f);
    sorted.finalize();
    ASSERT_EQ(sorted.nnz(), 2u);
    EXPECT_EQ(sorted.triplets()[0], (Triplet{0, 0, 1.0f}));
    EXPECT_EQ(sorted.triplets()[1], (Triplet{1, 1, 2.0f}));

    // Row-major with repeats: the repeats are summed.
    TripletMatrix repeated(2, 3);
    repeated.add(0, 1, 1.0f);
    repeated.add(0, 1, 2.0f);
    repeated.add(1, 0, 3.0f);
    repeated.add(1, 0, -3.0f);
    repeated.finalize();
    ASSERT_EQ(repeated.nnz(), 1u);
    EXPECT_EQ(repeated.triplets()[0], (Triplet{0, 1, 3.0f}));
}

TEST(TripletMatrixTest, AtReturnsZeroForMissing)
{
    TripletMatrix m(3, 3);
    m.add(1, 1, 5.0f);
    m.finalize();
    EXPECT_FLOAT_EQ(m.at(0, 0), 0.0f);
    EXPECT_FLOAT_EQ(m.at(1, 1), 5.0f);
    EXPECT_FLOAT_EQ(m.at(2, 2), 0.0f);
}

TEST(TripletMatrixTest, AtRequiresFinalized)
{
    TripletMatrix m(2, 2);
    m.add(0, 0, 1.0f);
    EXPECT_THROW(m.at(0, 0), PanicError);
}

TEST(TripletMatrixTest, RowRangeCoversRow)
{
    TripletMatrix m(3, 4);
    m.add(1, 0, 1.0f);
    m.add(1, 3, 2.0f);
    m.add(2, 2, 3.0f);
    m.finalize();
    const auto [b0, e0] = m.rowRange(0);
    EXPECT_EQ(b0, e0);
    const auto [b1, e1] = m.rowRange(1);
    EXPECT_EQ(e1 - b1, 2u);
    const auto [b2, e2] = m.rowRange(2);
    EXPECT_EQ(e2 - b2, 1u);
    EXPECT_EQ(b2, e1);
}

TEST(TripletMatrixTest, DensityMatchesDefinition)
{
    TripletMatrix m(4, 5);
    m.add(0, 0, 1.0f);
    m.add(1, 1, 1.0f);
    m.finalize();
    EXPECT_DOUBLE_EQ(m.density(), 2.0 / 20.0);
}

TEST(TripletMatrixTest, ToDensePlacesValues)
{
    TripletMatrix m(2, 3);
    m.add(0, 2, 7.0f);
    m.add(1, 0, -1.0f);
    m.finalize();
    const DenseMatrix d = m.toDense();
    EXPECT_FLOAT_EQ(d(0, 2), 7.0f);
    EXPECT_FLOAT_EQ(d(1, 0), -1.0f);
    EXPECT_FLOAT_EQ(d(0, 0), 0.0f);
}

TEST(TripletMatrixTest, TransposedSwapsCoordinates)
{
    TripletMatrix m(2, 3);
    m.add(0, 2, 7.0f);
    m.add(1, 1, 3.0f);
    m.finalize();
    const TripletMatrix t = m.transposed();
    EXPECT_EQ(t.rows(), 3u);
    EXPECT_EQ(t.cols(), 2u);
    EXPECT_FLOAT_EQ(t.at(2, 0), 7.0f);
    EXPECT_FLOAT_EQ(t.at(1, 1), 3.0f);
}

TEST(TripletMatrixTest, DoubleTransposeIsIdentity)
{
    TripletMatrix m(3, 3);
    m.add(0, 1, 1.0f);
    m.add(2, 0, 2.0f);
    m.finalize();
    EXPECT_TRUE(m == m.transposed().transposed());
}

TEST(TripletMatrixTest, EqualityComparesContent)
{
    TripletMatrix a(2, 2), b(2, 2);
    a.add(0, 1, 1.0f);
    b.add(0, 1, 1.0f);
    a.finalize();
    b.finalize();
    EXPECT_TRUE(a == b);
    TripletMatrix c(2, 2);
    c.add(1, 0, 1.0f);
    c.finalize();
    EXPECT_FALSE(a == c);
}

TEST(DenseMatrixTest, ZeroInitialized)
{
    DenseMatrix d(3, 3);
    for (Index r = 0; r < 3; ++r)
        for (Index c = 0; c < 3; ++c)
            EXPECT_FLOAT_EQ(d(r, c), 0.0f);
    EXPECT_EQ(d.nnz(), 0u);
}

TEST(DenseMatrixTest, BoundsChecked)
{
    DenseMatrix d(2, 2);
    EXPECT_THROW(d(2, 0), PanicError);
    EXPECT_THROW(d(0, 2), PanicError);
}

TEST(DenseMatrixTest, RowHelpers)
{
    DenseMatrix d(3, 3);
    d(1, 0) = 1.0f;
    d(1, 2) = 2.0f;
    EXPECT_TRUE(d.rowIsZero(0));
    EXPECT_FALSE(d.rowIsZero(1));
    EXPECT_EQ(d.rowNnz(1), 2u);
    EXPECT_EQ(d.nnz(), 2u);
}

TEST(CsrMatrixTest, BuildsFromTriplets)
{
    TripletMatrix m(3, 3);
    m.add(0, 0, 1.0f);
    m.add(0, 2, 2.0f);
    m.add(2, 1, 3.0f);
    m.finalize();
    const CsrMatrix csr(m);
    EXPECT_EQ(csr.nnz(), 3u);
    ASSERT_EQ(csr.rowPtr().size(), 4u);
    EXPECT_EQ(csr.rowPtr()[0], 0u);
    EXPECT_EQ(csr.rowPtr()[1], 2u);
    EXPECT_EQ(csr.rowPtr()[2], 2u);
    EXPECT_EQ(csr.rowPtr()[3], 3u);
}

TEST(CsrMatrixTest, MultiplyMatchesManual)
{
    TripletMatrix m(2, 3);
    m.add(0, 0, 1.0f);
    m.add(0, 2, 2.0f);
    m.add(1, 1, 3.0f);
    m.finalize();
    const CsrMatrix csr(m);
    const std::vector<Value> x = {1.0f, 2.0f, 3.0f};
    const auto y = csr.multiply(x);
    ASSERT_EQ(y.size(), 2u);
    EXPECT_FLOAT_EQ(y[0], 1.0f + 6.0f);
    EXPECT_FLOAT_EQ(y[1], 6.0f);
}

TEST(CsrMatrixTest, MultiplyChecksDimensions)
{
    TripletMatrix m(2, 3);
    m.finalize();
    const CsrMatrix csr(m);
    EXPECT_THROW(csr.multiply({1.0f, 2.0f}), FatalError);
}

TEST(CsrMatrixTest, MultiplyTransposedMatchesExplicitTranspose)
{
    TripletMatrix m(3, 4);
    m.add(0, 1, 2.0f);
    m.add(1, 3, -1.0f);
    m.add(2, 0, 4.0f);
    m.finalize();
    const CsrMatrix a(m);
    const CsrMatrix at(m.transposed());
    const std::vector<Value> x = {1.0f, 2.0f, 3.0f};
    const auto y1 = a.multiplyTransposed(x);
    const auto y2 = at.multiply(x);
    ASSERT_EQ(y1.size(), y2.size());
    for (std::size_t i = 0; i < y1.size(); ++i)
        EXPECT_FLOAT_EQ(y1[i], y2[i]);
}

} // namespace
} // namespace copernicus
