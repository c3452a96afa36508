/**
 * @file
 * Kernel tests: SpMV on every format's encoding, which decodes through
 * the codec and multiplies on the dot engine, equals the dense
 * reference bit for bit; dot-engine reduction, SpMM, and partitioned
 * SpMV against whole-matrix CSR.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cmath>
#include <cstdint>

#include "common/rng.hh"
#include "kernels/dot_engine.hh"
#include "kernels/spmm.hh"
#include "kernels/spmv.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

Tile
randomTile(Index p, double density, std::uint64_t seed)
{
    Rng rng(seed);
    TileBuilder t(p);
    for (Index r = 0; r < p; ++r)
        for (Index c = 0; c < p; ++c)
            if (rng.chance(density))
                t.set(r, c, static_cast<Value>(rng.range(0.5, 1.5)));
    return t.build();
}

std::vector<Value>
randomVector(std::size_t n, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Value> x(n);
    for (auto &v : x)
        v = static_cast<Value>(rng.range(-1.0, 1.0));
    return x;
}

TEST(DotEngineTest, TreeSumEmptyIsZero)
{
    EXPECT_FLOAT_EQ(treeSum({}), 0.0f);
}

TEST(DotEngineTest, TreeSumSingle)
{
    const std::vector<Value> v = {3.5f};
    EXPECT_FLOAT_EQ(treeSum(v), 3.5f);
}

TEST(DotEngineTest, TreeSumMatchesSequentialForExactValues)
{
    std::vector<Value> v(16);
    for (std::size_t i = 0; i < v.size(); ++i)
        v[i] = static_cast<Value>(i + 1);
    EXPECT_FLOAT_EQ(treeSum(v), 136.0f);
}

TEST(DotEngineTest, TreeSumOddLength)
{
    const std::vector<Value> v = {1, 2, 3, 4, 5};
    EXPECT_FLOAT_EQ(treeSum(v), 15.0f);
}

TEST(DotEngineTest, TreeDotMatchesManual)
{
    const std::vector<Value> a = {1, 2, 3, 4};
    const std::vector<Value> b = {5, 6, 7, 8};
    EXPECT_FLOAT_EQ(treeDot(a, b), 5 + 12 + 21 + 32);
}

TEST(DotEngineTest, TreeDotLengthMismatchIsFatal)
{
    const std::vector<Value> a = {1, 2};
    const std::vector<Value> b = {1};
    EXPECT_THROW(treeDot(a, b), FatalError);
}

TEST(SpmvDenseTest, IdentityTile)
{
    TileBuilder t(8);
    for (Index i = 0; i < 8; ++i)
        t.set(i, i, 1.0f);
    const auto x = randomVector(8, 1);
    const auto y = spmvDense(t.build(), x);
    for (Index i = 0; i < 8; ++i)
        EXPECT_FLOAT_EQ(y[i], x[i]);
}

TEST(SpmvDenseTest, WrongOperandLengthIsFatal)
{
    Tile t(8);
    const std::vector<Value> x(7, 1.0f);
    EXPECT_THROW(spmvDense(t, x), FatalError);
}

/**
 * spmvEncoded must return the dense reference's y bit for bit in every
 * format: one decoder and one summation order, the engine's.
 */
class SpmvFormatTest : public testing::TestWithParam<FormatKind>
{
};

TEST_P(SpmvFormatTest, MatchesDenseReference)
{
    const FormatCodec &codec = defaultCodec(GetParam());
    for (Index p : {8u, 16u, 32u}) {
        for (double density : {0.05, 0.3, 1.0}) {
            const Tile tile = randomTile(p, density, 31 * p + 7);
            const auto x = randomVector(p, p);
            const auto expected = spmvDense(tile, x);
            const auto encoded = codec.encode(tile);
            const auto actual = spmvEncoded(*encoded, x);
            ASSERT_EQ(actual.size(), expected.size());
            for (Index i = 0; i < p; ++i) {
                EXPECT_EQ(std::bit_cast<std::uint32_t>(actual[i]),
                          std::bit_cast<std::uint32_t>(expected[i]))
                    << formatName(GetParam()) << " p=" << p
                    << " density=" << density << " row=" << i;
            }
        }
    }
}

TEST_P(SpmvFormatTest, EmptyTileGivesZeroVector)
{
    const FormatCodec &codec = defaultCodec(GetParam());
    Tile t(16);
    const auto x = randomVector(16, 2);
    const auto encoded = codec.encode(t);
    for (Value v : spmvEncoded(*encoded, x))
        EXPECT_FLOAT_EQ(v, 0.0f);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, SpmvFormatTest,
                         testing::ValuesIn(allFormats()),
                         [](const testing::TestParamInfo<FormatKind> &i) {
                             return std::string(formatName(i.param));
                         });

TEST(SpmvPartitionedTest, MatchesCsrOnRandomMatrix)
{
    Rng rng(77);
    const auto m = randomMatrix(50, 0.1, rng);
    const CsrMatrix csr(m);
    const auto x = randomVector(50, 3);
    const auto expected = csr.multiply(x);

    for (FormatKind kind : paperFormats()) {
        const auto parts = partition(m, 16);
        const auto y = spmvPartitioned(parts, kind, x);
        // Output is padded to the grid; compare the real prefix.
        ASSERT_GE(y.size(), expected.size());
        for (std::size_t i = 0; i < expected.size(); ++i) {
            EXPECT_NEAR(y[i], expected[i],
                        1e-3 * (std::fabs(expected[i]) + 1))
                << formatName(kind) << " row " << i;
        }
        for (std::size_t i = expected.size(); i < y.size(); ++i)
            EXPECT_FLOAT_EQ(y[i], 0.0f);
    }
}

TEST(SpmvPartitionedTest, OperandTooLongIsFatal)
{
    TripletMatrix m(8, 8);
    m.add(0, 0, 1.0f);
    m.finalize();
    const auto parts = partition(m, 8);
    const std::vector<Value> x(9, 1.0f);
    EXPECT_THROW(spmvPartitioned(parts, FormatKind::CSR, x), FatalError);
}

TEST(SpmvPartitionedTest, ShortOperandIsZeroExtended)
{
    TripletMatrix m(10, 10);
    m.add(0, 9, 2.0f);
    m.finalize();
    const auto parts = partition(m, 8);
    // Operand of length 10 < padded width 16.
    std::vector<Value> x(10, 1.0f);
    const auto y = spmvPartitioned(parts, FormatKind::COO, x);
    EXPECT_FLOAT_EQ(y[0], 2.0f);
}

TEST(SpmmTest, MatchesManualProduct)
{
    TripletMatrix m(2, 3);
    m.add(0, 0, 1.0f);
    m.add(0, 2, 2.0f);
    m.add(1, 1, 3.0f);
    m.finalize();
    const CsrMatrix a(m);
    DenseMatrix b(3, 2);
    b(0, 0) = 1;
    b(1, 0) = 2;
    b(2, 0) = 3;
    b(0, 1) = 4;
    b(1, 1) = 5;
    b(2, 1) = 6;
    const auto c = spmm(a, b);
    EXPECT_FLOAT_EQ(c(0, 0), 1 * 1 + 2 * 3);
    EXPECT_FLOAT_EQ(c(0, 1), 1 * 4 + 2 * 6);
    EXPECT_FLOAT_EQ(c(1, 0), 3 * 2);
    EXPECT_FLOAT_EQ(c(1, 1), 3 * 5);
}

TEST(SpmmTest, DimensionMismatchIsFatal)
{
    TripletMatrix m(2, 3);
    m.finalize();
    const CsrMatrix a(m);
    DenseMatrix b(2, 2);
    EXPECT_THROW(spmm(a, b), FatalError);
}

TEST(SpmmTest, EquivalentToColumnwiseSpmv)
{
    Rng rng(9);
    const auto m = randomMatrix(20, 0.2, rng);
    const CsrMatrix a(m);
    DenseMatrix b(20, 3);
    for (Index r = 0; r < 20; ++r)
        for (Index c = 0; c < 3; ++c)
            b(r, c) = static_cast<Value>(rng.range(-1.0, 1.0));
    const auto product = spmm(a, b);
    for (Index c = 0; c < 3; ++c) {
        std::vector<Value> col(20);
        for (Index r = 0; r < 20; ++r)
            col[r] = b(r, c);
        const auto y = a.multiply(col);
        for (Index r = 0; r < 20; ++r)
            EXPECT_NEAR(product(r, c), y[r], 1e-4);
    }
}

} // namespace
} // namespace copernicus
