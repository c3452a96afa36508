/**
 * @file
 * Exact-cycle regression tests for the decompressor models: every
 * format's cycle count on small hand-built tiles is computed by hand
 * from the documented schedule (default config: BRAM read 2, loop
 * depth 4, hash 2, dual-port BRAM) and pinned here. Any change to the
 * model's arithmetic must update these numbers consciously.
 */

#include <gtest/gtest.h>

#include "formats/registry.hh"
#include "hls/decompressor.hh"

namespace copernicus {
namespace {

Cycles
cyclesFor(FormatKind kind, const Tile &tile)
{
    const auto encoded = defaultCodec(kind).encode(tile);
    return simulateDecompression(*encoded, HlsConfig()).decompressCycles;
}

/** p=8 tile with entries (0,0)=1, (0,5)=2, (3,0)=3. */
Tile
threeEntryTile()
{
    TileBuilder t(8);
    t.set(0, 0, 1);
    t.set(0, 5, 2);
    t.set(3, 0, 3);
    return t.build();
}

TEST(ExactCyclesTest, Dense)
{
    EXPECT_EQ(cyclesFor(FormatKind::Dense, threeEntryTile()), 0u);
}

TEST(ExactCyclesTest, Csr)
{
    // bramLat(2) + depth(4) + entries(3) + (nnzRows(2) - 1) = 10.
    EXPECT_EQ(cyclesFor(FormatKind::CSR, threeEntryTile()), 10u);
}

TEST(ExactCyclesTest, Bcsr)
{
    // Blocks: (0,0) holds (0,0) and (3,0); (0,4) holds (0,5):
    // 2 blocks in 1 block-row: 2 + 4 + 2 + 0 = 8.
    EXPECT_EQ(cyclesFor(FormatKind::BCSR, threeEntryTile()), 8u);
}

TEST(ExactCyclesTest, Csc)
{
    // Per output row a pipelined scan of all 3 entries: depth 4 +
    // (3-1) = 6 cycles, times p=8 rows, plus the initial BRAM read:
    // 2 + 8*6 = 50.
    EXPECT_EQ(cyclesFor(FormatKind::CSC, threeEntryTile()), 50u);
}

TEST(ExactCyclesTest, Coo)
{
    // One pipelined loop over 3 tuples: 4 + (3-1) = 6.
    EXPECT_EQ(cyclesFor(FormatKind::COO, threeEntryTile()), 6u);
}

TEST(ExactCyclesTest, Dok)
{
    // Hash probe per tuple: depth 4+2, II 2: 6 + 2*(3-1) = 10.
    EXPECT_EQ(cyclesFor(FormatKind::DOK, threeEntryTile()), 10u);
}

TEST(ExactCyclesTest, Lil)
{
    // Column 0 holds two entries (longest list), nnzRows = 2.
    // fill = bramLat(2) + log2(8)(3) = 5; production =
    // max(2*nnzRows, bramLat*longest) = max(4, 4) = 4; end detection
    // +2 -> 11.
    EXPECT_EQ(cyclesFor(FormatKind::LIL, threeEntryTile()), 11u);
}

TEST(ExactCyclesTest, Ell)
{
    // One pipelined sweep over all 8 rows: 4 + 7 = 11, independent of
    // the entries.
    EXPECT_EQ(cyclesFor(FormatKind::ELL, threeEntryTile()), 11u);
    TileBuilder other(8);
    other.set(7, 7, 9);
    EXPECT_EQ(cyclesFor(FormatKind::ELL, other.build()), 11u);
}

TEST(ExactCyclesTest, Sell)
{
    // ELL sweep (11) + one width-header read per slice (2 slices of
    // height 4, bramLat 2): 11 + 4 = 15.
    EXPECT_EQ(cyclesFor(FormatKind::SELL, threeEntryTile()), 15u);
}

TEST(ExactCyclesTest, SellCs)
{
    // SELL cost (11 + 4) plus one perm look-up per row (8): 23.
    EXPECT_EQ(cyclesFor(FormatKind::SELLCS, threeEntryTile()), 23u);
}

TEST(ExactCyclesTest, Dia)
{
    // Diagonals: 0 (entry (0,0)), +5 ((0,5)), -3 ((3,0)) -> 3
    // diagonals, dual-ported scan ceil(3/2)=2 per row, 8 rows:
    // 4 + 8*2 = 20.
    EXPECT_EQ(cyclesFor(FormatKind::DIA, threeEntryTile()), 20u);
}

TEST(ExactCyclesTest, Jds)
{
    // width = 2 jagged diagonals, nnz 3, nnzRows 2:
    // 2 + 4 + 3 + 2*2 + 2 = 15.
    EXPECT_EQ(cyclesFor(FormatKind::JDS, threeEntryTile()), 15u);
}

TEST(ExactCyclesTest, EllCoo)
{
    // Width 2, no row exceeds 2 entries: ELL sweep only = 11.
    EXPECT_EQ(cyclesFor(FormatKind::ELLCOO, threeEntryTile()), 11u);
    // Force 3 entries in one row: overflow loop adds 4 + (1-1).
    TileBuilder overflow(8);
    overflow.set(2, 0, 1);
    overflow.set(2, 3, 2);
    overflow.set(2, 6, 3);
    EXPECT_EQ(cyclesFor(FormatKind::ELLCOO, overflow.build()), 11u + 4u);
}

TEST(ExactCyclesTest, Bitmap)
{
    // 64 mask bits = 1 word; max(words=1, nnz=3) = 3: 4 + 3 = 7.
    EXPECT_EQ(cyclesFor(FormatKind::BITMAP, threeEntryTile()), 7u);
}

TEST(ExactCyclesTest, EmptyTilesAreFreeForRowSkippingFormats)
{
    const Tile empty(8);
    for (FormatKind kind :
         {FormatKind::CSR, FormatKind::BCSR, FormatKind::COO,
          FormatKind::DOK, FormatKind::LIL, FormatKind::DIA,
          FormatKind::JDS, FormatKind::BITMAP}) {
        EXPECT_EQ(cyclesFor(kind, empty), 0u) << formatName(kind);
    }
}

TEST(ExactCyclesTest, FullTileCsr)
{
    // 64 entries, 8 non-zero rows: 2 + 4 + 64 + 7 = 77.
    TileBuilder full(8);
    for (Index r = 0; r < 8; ++r)
        for (Index c = 0; c < 8; ++c)
            full.set(r, c, 1);
    EXPECT_EQ(cyclesFor(FormatKind::CSR, full.build()), 77u);
}

TEST(ExactCyclesTest, ConfigScalesCsr)
{
    // Doubling the loop depth adds exactly 4 cycles to CSR's count.
    const Tile tile = threeEntryTile();
    const auto encoded = defaultCodec(FormatKind::CSR).encode(tile);
    HlsConfig deep;
    deep.loopDepth = 8;
    EXPECT_EQ(simulateDecompression(*encoded, deep).decompressCycles,
              14u);
}

} // namespace
} // namespace copernicus
