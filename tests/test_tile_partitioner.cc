/**
 * @file
 * Unit tests for Tile and the partitioner.
 */

#include <algorithm>
#include <cmath>
#include <gtest/gtest.h>
#include <limits>
#include <random>

#include "common/rng.hh"
#include "kernels/spmv.hh"
#include "matrix/csr_matrix.hh"
#include "matrix/partitioner.hh"
#include "matrix/tile.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

TEST(TileTest, ConstructionAndAccess)
{
    const Tile empty(4, 2, 3);
    EXPECT_EQ(empty.size(), 4u);
    EXPECT_EQ(empty.tileRow(), 2u);
    EXPECT_EQ(empty.tileCol(), 3u);
    EXPECT_TRUE(empty.empty());
    TileBuilder b(4, 2, 3);
    b.set(1, 2, 5.0f);
    const Tile t = b.build();
    EXPECT_EQ(t.tileRow(), 2u);
    EXPECT_EQ(t.tileCol(), 3u);
    EXPECT_FLOAT_EQ(t(1, 2), 5.0f);
    EXPECT_FLOAT_EQ(t(1, 1), 0.0f);
    EXPECT_FALSE(t.empty());
}

TEST(TileTest, ZeroSizeRejected)
{
    EXPECT_THROW(Tile(0), FatalError);
    EXPECT_THROW(TileBuilder(0), FatalError);
}

TEST(TileTest, BoundsChecked)
{
    const Tile t = TileBuilder(4).build();
    EXPECT_THROW(t(4, 0), PanicError);
    EXPECT_THROW(t(0, 4), PanicError);
}

TEST(TileTest, RowAndColumnStatistics)
{
    TileBuilder b(4);
    b.set(0, 0, 1.0f);
    b.set(0, 3, 2.0f);
    b.set(2, 0, 3.0f);
    const Tile t = b.build();
    EXPECT_EQ(t.nnz(), 3u);
    EXPECT_EQ(t.rowNnz(0), 2u);
    EXPECT_EQ(t.rowNnz(1), 0u);
    EXPECT_EQ(t.colNnz(0), 2u);
    EXPECT_EQ(t.nnzRows(), 2u);
    EXPECT_EQ(t.maxRowNnz(), 2u);
    EXPECT_EQ(t.maxColNnz(), 2u);
}

TEST(TileTest, EqualityIgnoresGridCoordinates)
{
    TileBuilder a(2, 0, 0), b(2, 5, 7), c(2, 5, 7);
    a.set(0, 0, 1.0f);
    b.set(0, 0, 1.0f);
    c.set(0, 0, 1.0f);
    c.set(1, 1, 2.0f);
    const Tile ta = a.build();
    EXPECT_TRUE(ta == b.build());
    EXPECT_FALSE(ta == c.build());
}

/** Every TileStats field and the nonzero stream agree. */
void
expectSameTile(const Tile &got, const Tile &want)
{
    EXPECT_EQ(got.nonzeros(), want.nonzeros());
    const TileStats &g = got.features();
    const TileStats &w = want.features();
    EXPECT_EQ(g.nnz, w.nnz);
    EXPECT_EQ(g.rowNnz, w.rowNnz);
    EXPECT_EQ(g.colNnz, w.colNnz);
    EXPECT_EQ(g.rowStart, w.rowStart);
    EXPECT_EQ(g.maxRowNnz, w.maxRowNnz);
    EXPECT_EQ(g.maxColNnz, w.maxColNnz);
    EXPECT_EQ(g.nnzRows, w.nnzRows);
    EXPECT_EQ(g.nnzCols, w.nnzCols);
    EXPECT_EQ(g.nnzDiagonals, w.nnzDiagonals);
}

/** The one tile partition() makes of a random 16 x 16 matrix. */
Tile
partitionedTile()
{
    Rng rng(2024);
    const auto m = randomMatrix(16, 0.3, rng);
    const auto parts = partition(m, 16);
    EXPECT_EQ(parts.tiles.size(), 1u);
    return parts.tiles.front();
}

/** Replay @p order through a builder. */
Tile
buildFrom(const std::vector<TileNonzero> &order)
{
    TileBuilder b(16);
    for (const TileNonzero &e : order)
        b.set(e.row, e.col, e.value);
    return b.build();
}

TEST(TileBuilderTest, RowMajorEmissionMatchesPartition)
{
    const Tile want = partitionedTile();
    expectSameTile(buildFrom(want.nonzeros()), want);
}

TEST(TileBuilderTest, ColumnMajorEmissionMatchesPartition)
{
    // CSC and LIL decode column by column.
    const Tile want = partitionedTile();
    std::vector<TileNonzero> order = want.nonzeros();
    std::stable_sort(order.begin(), order.end(),
                     [](const TileNonzero &a, const TileNonzero &b) {
                         return a.col < b.col;
                     });
    expectSameTile(buildFrom(order), want);
}

TEST(TileBuilderTest, PermutedRowEmissionMatchesPartition)
{
    // JDS and SELL-C-sigma decode whole rows, longest row first.
    const Tile want = partitionedTile();
    std::vector<TileNonzero> order = want.nonzeros();
    std::stable_sort(order.begin(), order.end(),
                     [&](const TileNonzero &a, const TileNonzero &b) {
                         return want.rowNnz(a.row) > want.rowNnz(b.row);
                     });
    ASSERT_NE(order, want.nonzeros());
    expectSameTile(buildFrom(order), want);
}

TEST(TileBuilderTest, ArbitraryEmissionMatchesPartition)
{
    // DOK decodes in hash-table order: columns within a row arrive out
    // of order too.
    const Tile want = partitionedTile();
    std::vector<TileNonzero> order = want.nonzeros();
    std::mt19937 shuffle(7);
    std::shuffle(order.begin(), order.end(), shuffle);
    bool colsOutOfOrder = false;
    for (std::size_t i = 0; i < order.size(); ++i)
        for (std::size_t j = i + 1; j < order.size(); ++j)
            colsOutOfOrder = colsOutOfOrder ||
                             (order[j].row == order[i].row &&
                              order[j].col < order[i].col);
    ASSERT_TRUE(colsOutOfOrder);
    expectSameTile(buildFrom(order), want);
}

TEST(TileBuilderTest, ZeroWritesAddNoEntry)
{
    TileBuilder b(4);
    b.set(1, 1, 0.0f);
    b.set(2, 3, -0.0f);
    b.set(0, 2, 4.0f);
    b.set(0, 0, -0.0f);
    const Tile t = b.build();
    ASSERT_EQ(t.nnz(), 1u);
    EXPECT_EQ(t.nonzeros().front(), (TileNonzero{0, 2, 4.0f}));
    EXPECT_EQ(t.nnzRows(), 1u);
    EXPECT_EQ(t.features().nnzDiagonals, 1u);
    EXPECT_TRUE(TileBuilder(4).build() == [] {
        TileBuilder zeros(4);
        zeros.set(3, 3, -0.0f);
        return zeros.build();
    }());
}

TEST(TileBuilderTest, WritesAreRangeChecked)
{
    TileBuilder b(4);
    EXPECT_THROW(b.set(4, 0, 1.0f), PanicError);
    EXPECT_THROW(b.set(0, 4, 1.0f), PanicError);
    EXPECT_THROW(b.set(4, 4, 0.0f), PanicError);
    EXPECT_TRUE(b.build().empty());
}

TEST(TileBuilderTest, BuildsOnce)
{
    TileBuilder b(4);
    b.set(1, 1, 1.0f);
    EXPECT_EQ(b.build().nnz(), 1u);
    EXPECT_THROW(b.build(), PanicError);
}

TEST(TileBuilderTest, RepeatedCellThrows)
{
    // Row-major, out of row order, and out of column order within a row.
    const std::vector<std::vector<TileNonzero>> orders = {
        {{1, 1, 1.0f}, {1, 1, 2.0f}},
        {{3, 0, 1.0f}, {1, 1, 1.0f}, {3, 0, 2.0f}},
        {{0, 5, 1.0f}, {0, 2, 1.0f}, {0, 5, 3.0f}},
    };
    for (const auto &order : orders) {
        TileBuilder b(8);
        for (const TileNonzero &e : order)
            b.set(e.row, e.col, e.value);
        EXPECT_THROW(b.build(), PanicError);
    }
}

TEST(TileBuilderTest, RunWritesSkipZerosAsSetDoes)
{
    const Value nan = std::numeric_limits<Value>::quiet_NaN();
    const Value run[] = {1.0f, 0.0f, -0.0f, nan, 2.0f};
    TileBuilder b(8);
    b.setRun(3, 2, run, 5);
    const Tile t = b.build();
    // 0 and -0 add no entry; NaN is not zero and is kept.
    ASSERT_EQ(t.nnz(), 3u);
    EXPECT_EQ(t.nonzeros()[0], (TileNonzero{3, 2, 1.0f}));
    EXPECT_EQ(t.nonzeros()[1].row, 3u);
    EXPECT_EQ(t.nonzeros()[1].col, 5u);
    EXPECT_TRUE(std::isnan(t.nonzeros()[1].value));
    EXPECT_EQ(t.nonzeros()[2], (TileNonzero{3, 6, 2.0f}));
}

TEST(TileBuilderTest, RunWritesAreRangeChecked)
{
    const Value ones[] = {1.0f, 1.0f, 1.0f, 1.0f, 1.0f};
    const Value zeros[] = {0.0f, 0.0f};
    TileBuilder b(4);
    EXPECT_THROW(b.setRun(4, 0, ones, 1), PanicError);
    EXPECT_THROW(b.setRun(0, 0, ones, 5), PanicError);
    EXPECT_THROW(b.setRun(0, 3, ones, 2), PanicError);
    // All-zero cells past the edge are still out of range.
    EXPECT_THROW(b.setRun(0, 3, zeros, 2), PanicError);
    EXPECT_THROW(b.setRun(0, 5, ones, 0), PanicError);
    // A count that would wrap around the column range.
    EXPECT_THROW(
        b.setRun(0, 1, ones, std::numeric_limits<Index>::max()),
        PanicError);
    // An empty run at the edge is in range and writes nothing; no
    // rejected run wrote any of its cells.
    b.setRun(3, 4, ones, 0);
    EXPECT_TRUE(b.build().empty());
}

TEST(TileBuilderTest, RunBeforeTheLastWriteIsSorted)
{
    const Value run[] = {0.0f, 5.0f, 6.0f};
    // Each case writes one cell and then a run; the run's first entry
    // lands at column 1 of row 2.
    const std::vector<TileNonzero> cells = {
        {2, 0, 9.0f}, // before the run: the writes stay row-major
        {2, 3, 9.0f}, // later in the run's row
        {4, 0, 9.0f}, // a later row
    };
    for (const TileNonzero &cell : cells) {
        SCOPED_TRACE(std::to_string(cell.row) + "," +
                     std::to_string(cell.col));
        TileBuilder runs(8);
        runs.set(cell.row, cell.col, cell.value);
        runs.setRun(2, 0, run, 3);
        TileBuilder sets(8);
        sets.set(2, 1, 5.0f);
        sets.set(2, 2, 6.0f);
        sets.set(cell.row, cell.col, cell.value);
        expectSameTile(runs.build(), sets.build());
    }
}

/** Replay @p order into @p b and check it against @p want in place. */
bool
replayMatches(TileBuilder &b, const std::vector<TileNonzero> &order,
              const Tile &want)
{
    b.reset(want.size());
    for (const TileNonzero &e : order)
        b.set(e.row, e.col, e.value);
    return b.matches(want);
}

TEST(TileBuilderTest, MatchesAcceptsEveryEmissionOrder)
{
    const Tile want = partitionedTile();
    std::vector<TileNonzero> columnMajor = want.nonzeros();
    std::stable_sort(columnMajor.begin(), columnMajor.end(),
                     [](const TileNonzero &a, const TileNonzero &b) {
                         return a.col < b.col;
                     });
    std::vector<TileNonzero> hashOrder = want.nonzeros();
    std::mt19937 shuffle(7);
    std::shuffle(hashOrder.begin(), hashOrder.end(), shuffle);
    ASSERT_NE(columnMajor, want.nonzeros());
    ASSERT_NE(hashOrder, want.nonzeros());

    // One builder, reset between replays, as a decoder reuses it.
    TileBuilder b(4);
    const std::vector<const std::vector<TileNonzero> *> orders = {
        &want.nonzeros(), &columnMajor, &hashOrder};
    for (const auto *order : orders)
        EXPECT_TRUE(replayMatches(b, *order, want));
    // Matching canonicalized in place; the builder still builds.
    expectSameTile(b.build(), want);
    EXPECT_TRUE(replayMatches(b, {}, Tile(16)));
}

TEST(TileBuilderTest, MatchesRejectsEveryDifference)
{
    const Tile want = partitionedTile();
    const std::vector<TileNonzero> &nz = want.nonzeros();
    ASSERT_GE(nz.size(), 2u);
    TileBuilder b(16);

    std::vector<TileNonzero> changed = nz;
    changed[nz.size() / 2].value += 1.0f;
    EXPECT_FALSE(replayMatches(b, changed, want));

    std::vector<TileNonzero> missing = nz;
    missing.erase(missing.begin() + 1);
    EXPECT_FALSE(replayMatches(b, missing, want));

    std::vector<TileNonzero> extra = nz;
    TileNonzero added{0, 0, 5.0f};
    while (want(added.row, added.col) != Value(0))
        ++added.col;
    extra.push_back(added);
    EXPECT_FALSE(replayMatches(b, extra, want));

    // The same entries in a larger tile are another tile.
    b.reset(32);
    for (const TileNonzero &e : nz)
        b.set(e.row, e.col, e.value);
    EXPECT_FALSE(b.matches(want));
    EXPECT_TRUE(replayMatches(b, nz, want));
}

TEST(TileBuilderTest, MatchesANanItHolds)
{
    // MatrixMarket input may hold nan, and a sweep checks every decode
    // against its source tile: values compare by bit pattern, under
    // which a NaN equals itself and still differs from any number.
    const Value nan = std::numeric_limits<Value>::quiet_NaN();
    const std::vector<TileNonzero> nz = {{0, 1, 2.0f}, {2, 3, nan}};
    TileBuilder source(4);
    for (const TileNonzero &e : nz)
        source.set(e.row, e.col, e.value);
    const Tile want = source.build();
    TileBuilder b(4);
    EXPECT_TRUE(replayMatches(b, nz, want));
    std::vector<TileNonzero> number = nz;
    number[1].value = 1.0f;
    EXPECT_FALSE(replayMatches(b, number, want));
}

TEST(TileBuilderTest, MatchesKeepsTheBuildChecks)
{
    const Tile want = partitionedTile();
    const std::vector<std::vector<TileNonzero>> repeats = {
        {{1, 1, 1.0f}, {1, 1, 2.0f}},
        {{3, 0, 1.0f}, {1, 1, 1.0f}, {3, 0, 2.0f}},
        {{0, 5, 1.0f}, {0, 2, 1.0f}, {0, 5, 3.0f}},
    };
    TileBuilder b(16);
    for (const auto &order : repeats)
        EXPECT_THROW(replayMatches(b, order, want), PanicError);
    // A reset to a smaller edge range-checks against the new size.
    b.reset(8);
    EXPECT_THROW(b.set(8, 0, 1.0f), PanicError);
    EXPECT_THROW(b.set(0, 8, 1.0f), PanicError);
    EXPECT_THROW(b.reset(0), FatalError);
    // A built builder is spent until it is reset.
    b.reset(16);
    EXPECT_TRUE(b.build().empty());
    EXPECT_THROW(b.matches(want), PanicError);
}

TEST(PartitionerTest, ExactGridNoPadding)
{
    TripletMatrix m(8, 8);
    m.add(0, 0, 1.0f);
    m.add(7, 7, 2.0f);
    m.finalize();
    const auto parts = partition(m, 4);
    EXPECT_EQ(parts.gridRows, 2u);
    EXPECT_EQ(parts.gridCols, 2u);
    EXPECT_EQ(parts.tiles.size(), 2u);
    EXPECT_EQ(parts.zeroTiles, 2u);
    EXPECT_EQ(parts.totalTiles(), 4u);
    EXPECT_DOUBLE_EQ(parts.nonZeroTileFraction(), 0.5);
}

TEST(PartitionerTest, PaddedEdgeTiles)
{
    TripletMatrix m(10, 10);
    m.add(9, 9, 1.0f);
    m.finalize();
    const auto parts = partition(m, 4);
    EXPECT_EQ(parts.gridRows, 3u);
    EXPECT_EQ(parts.gridCols, 3u);
    ASSERT_EQ(parts.tiles.size(), 1u);
    const Tile &tile = parts.tiles.front();
    EXPECT_EQ(tile.tileRow(), 2u);
    EXPECT_EQ(tile.tileCol(), 2u);
    EXPECT_FLOAT_EQ(tile(1, 1), 1.0f); // 9 % 4 == 1
}

TEST(PartitionerTest, TilesSortedInStreamingOrder)
{
    TripletMatrix m(8, 8);
    m.add(6, 1, 1.0f); // tile (1, 0)
    m.add(1, 6, 2.0f); // tile (0, 1)
    m.add(0, 0, 3.0f); // tile (0, 0)
    m.finalize();
    const auto parts = partition(m, 4);
    ASSERT_EQ(parts.tiles.size(), 3u);
    EXPECT_EQ(parts.tiles[0].tileRow(), 0u);
    EXPECT_EQ(parts.tiles[0].tileCol(), 0u);
    EXPECT_EQ(parts.tiles[1].tileRow(), 0u);
    EXPECT_EQ(parts.tiles[1].tileCol(), 1u);
    EXPECT_EQ(parts.tiles[2].tileRow(), 1u);
    EXPECT_EQ(parts.tiles[2].tileCol(), 0u);
}

TEST(PartitionerTest, ZeroPartitionSizeRejected)
{
    TripletMatrix m(4, 4);
    m.finalize();
    EXPECT_THROW(partition(m, 0), FatalError);
}

TEST(PartitionerTest, EmptyMatrixHasOnlyZeroTiles)
{
    TripletMatrix m(16, 16);
    m.finalize();
    const auto parts = partition(m, 8);
    EXPECT_TRUE(parts.tiles.empty());
    EXPECT_EQ(parts.zeroTiles, 4u);
    EXPECT_DOUBLE_EQ(parts.nonZeroTileFraction(), 0.0);
}

TEST(PartitionerTest, NnzConservedAcrossTiles)
{
    Rng rng(123);
    const auto m = randomMatrix(100, 0.05, rng);
    for (Index p : {8u, 16u, 32u}) {
        const auto parts = partition(m, p);
        std::size_t total = 0;
        for (const auto &tile : parts.tiles)
            total += tile.nnz();
        EXPECT_EQ(total, m.nnz()) << "partition size " << p;
    }
}

TEST(PartitionerTest, ValuesLandAtCorrectLocalCoordinates)
{
    Rng rng(321);
    const auto m = randomMatrix(40, 0.1, rng);
    const Index p = 16;
    const auto parts = partition(m, p);
    for (const auto &tile : parts.tiles) {
        for (Index r = 0; r < p; ++r) {
            for (Index c = 0; c < p; ++c) {
                const Index gr = tile.tileRow() * p + r;
                const Index gc = tile.tileCol() * p + c;
                const Value expected =
                    (gr < m.rows() && gc < m.cols()) ? m.at(gr, gc)
                                                     : Value(0);
                ASSERT_FLOAT_EQ(tile(r, c), expected);
            }
        }
    }
}

TEST(PartitionerTest, EveryReturnedTileIsNonZero)
{
    Rng rng(55);
    const auto m = randomMatrix(64, 0.01, rng);
    const auto parts = partition(m, 8);
    for (const auto &tile : parts.tiles)
        EXPECT_GT(tile.nnz(), 0u);
}

TEST(PartitionerTest, RectangularMatrixGrid)
{
    // 20 x 50 matrix at p = 16: grid 2 x 4 with padded edges.
    TripletMatrix m(20, 50);
    m.add(19, 49, 3.0f);
    m.add(0, 20, 5.0f);
    m.finalize();
    const auto parts = partition(m, 16);
    EXPECT_EQ(parts.gridRows, 2u);
    EXPECT_EQ(parts.gridCols, 4u);
    ASSERT_EQ(parts.tiles.size(), 2u);
    EXPECT_FLOAT_EQ(parts.tiles[0](0, 4), 5.0f);  // tile (0,1)
    EXPECT_FLOAT_EQ(parts.tiles[1](3, 1), 3.0f);  // tile (1,3)
}

TEST(PartitionerTest, RectangularSpmvMatchesCsr)
{
    // Pruned-layer shapes are rectangular; the partitioned SpMV must
    // agree with the full-matrix CSR reference there too.
    Rng rng(99);
    const auto m = prunedLayer(24, 56, 0.15, rng);
    const CsrMatrix csr(m);
    std::vector<Value> x(56);
    for (auto &v : x)
        v = static_cast<Value>(rng.range(-1.0, 1.0));
    const auto expected = csr.multiply(x);
    const auto parts = partition(m, 16);
    const auto y = spmvPartitioned(parts, FormatKind::CSR, x);
    for (std::size_t i = 0; i < expected.size(); ++i)
        EXPECT_NEAR(y[i], expected[i], 1e-3);
}

TEST(PartitionerTest, PartitionSizeLargerThanMatrix)
{
    TripletMatrix m(5, 5);
    m.add(2, 3, 1.0f);
    m.finalize();
    const auto parts = partition(m, 16);
    EXPECT_EQ(parts.gridRows, 1u);
    EXPECT_EQ(parts.gridCols, 1u);
    ASSERT_EQ(parts.tiles.size(), 1u);
    EXPECT_FLOAT_EQ(parts.tiles[0](2, 3), 1.0f);
}

} // namespace
} // namespace copernicus
