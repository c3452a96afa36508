/**
 * @file
 * Cross-format equivalence fuzzing: every format must agree with every
 * other about what matrix a tile holds — same decoded tile, the same
 * SpMV result bit for bit, same non-zero payload — across many
 * randomized structures.
 * Also pins the codecs' documented size restrictions.
 */

#include <gtest/gtest.h>

#include <bit>
#include <cstdint>
#include <set>
#include <utility>

#include "common/rng.hh"
#include "common/status.hh"
#include "formats/registry.hh"
#include "formats/sellcs_format.hh"
#include "kernels/spmv.hh"

namespace copernicus {
namespace {

/** Structured fuzz tiles: pattern varies with the seed. */
Tile
fuzzTile(Index p, std::uint64_t seed)
{
    Rng rng(seed);
    // Patterns overlap (a row or column can be drawn twice), so stage
    // the writes in a plane where the last one wins.
    std::vector<Value> plane(static_cast<std::size_t>(p) * p, Value(0));
    const auto cell = [&](Index r, Index c) -> Value & {
        return plane[static_cast<std::size_t>(r) * p + c];
    };
    const int pattern = static_cast<int>(rng.below(5));
    switch (pattern) {
      case 0: // uniform random at a random density
      {
        const double density = rng.range(0.01, 0.9);
        for (Index r = 0; r < p; ++r)
            for (Index c = 0; c < p; ++c)
                if (rng.chance(density))
                    cell(r, c) = static_cast<Value>(rng.range(-2.0, 2.0));
        break;
      }
      case 1: // band of random half-width
      {
        const Index half = 1 + static_cast<Index>(rng.below(p / 2));
        for (Index r = 0; r < p; ++r)
            for (Index c = (r > half ? r - half : 0);
                 c < std::min(p, r + half + 1); ++c)
                cell(r, c) = static_cast<Value>(rng.range(0.5, 1.5));
        break;
      }
      case 2: // a few dense rows
      {
        const Index rows = 1 + static_cast<Index>(rng.below(3));
        for (Index k = 0; k < rows; ++k) {
            const Index r = static_cast<Index>(rng.below(p));
            for (Index c = 0; c < p; ++c)
                cell(r, c) = static_cast<Value>(rng.range(0.5, 1.5));
        }
        break;
      }
      case 3: // a few dense columns
      {
        const Index cols = 1 + static_cast<Index>(rng.below(3));
        for (Index k = 0; k < cols; ++k) {
            const Index c = static_cast<Index>(rng.below(p));
            for (Index r = 0; r < p; ++r)
                cell(r, c) = static_cast<Value>(rng.range(0.5, 1.5));
        }
        break;
      }
      default: // sparse scatter
        for (Index k = 0; k < p; ++k) {
            const Index r = static_cast<Index>(rng.below(p));
            const Index c = static_cast<Index>(rng.below(p));
            cell(r, c) = static_cast<Value>(rng.range(-1.0, 1.0));
        }
    }
    TileBuilder t(p);
    for (Index r = 0; r < p; ++r)
        for (Index c = 0; c < p; ++c)
            t.set(r, c, cell(r, c));
    return t.build();
}

TEST(CrossFormatTest, AllFormatsDecodeToTheSameTile)
{
    for (Index p : {8u, 16u, 32u}) {
        for (std::uint64_t seed = 1; seed <= 10; ++seed) {
            const Tile tile = fuzzTile(p, seed * 131 + p);
            for (FormatKind kind : allFormats()) {
                const FormatCodec &codec = defaultCodec(kind);
                const Tile decoded = codec.decode(*codec.encode(tile));
                ASSERT_TRUE(decoded == tile)
                    << formatName(kind) << " p=" << p << " seed="
                    << seed;
            }
        }
    }
}

TEST(CrossFormatTest, AllFormatsComputeTheSameSpmv)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const Index p = 16;
        const Tile tile = fuzzTile(p, seed * 257);
        Rng rng(seed);
        std::vector<Value> x(p);
        for (auto &v : x)
            v = static_cast<Value>(rng.range(-1.0, 1.0));
        const auto reference = spmvDense(tile, x);
        for (FormatKind kind : allFormats()) {
            const auto encoded = defaultCodec(kind).encode(tile);
            const auto y = spmvEncoded(*encoded, x);
            for (Index i = 0; i < p; ++i) {
                ASSERT_EQ(std::bit_cast<std::uint32_t>(y[i]),
                          std::bit_cast<std::uint32_t>(reference[i]))
                    << formatName(kind) << " seed=" << seed << " row="
                    << i;
            }
        }
    }
}

TEST(CrossFormatTest, AllFormatsAgreeOnNnz)
{
    const Tile tile = fuzzTile(16, 999);
    const Index nnz = tile.nnz();
    for (FormatKind kind : allFormats()) {
        const auto encoded = defaultCodec(kind).encode(tile);
        EXPECT_EQ(encoded->nnz(), nnz) << formatName(kind);
        EXPECT_EQ(encoded->usefulBytes(), Bytes(nnz) * valueBytes)
            << formatName(kind);
    }
}

TEST(CrossFormatTest, DenseIsTheByteCeilingForSparseTiles)
{
    // At low density every sparse format must undercut dense bytes.
    Rng rng(7);
    std::set<std::pair<Index, Index>> cells;
    for (int k = 0; k < 8; ++k)
        cells.insert({static_cast<Index>(rng.below(32)),
                      static_cast<Index>(rng.below(32))});
    TileBuilder builder(32);
    for (const auto &[r, c] : cells)
        builder.set(r, c, 1.0f);
    const Tile t = builder.build();
    const Bytes dense =
        defaultCodec(FormatKind::Dense).encode(t)->totalBytes();
    for (FormatKind kind : sparseFormats()) {
        EXPECT_LT(defaultCodec(kind).encode(t)->totalBytes(), dense)
            << formatName(kind);
    }
}

TEST(CrossFormatTest, DocumentedSizeRestrictions)
{
    // Codecs with divisibility requirements reject odd tile sizes
    // loudly instead of mis-encoding.
    TileBuilder builder12(12);
    builder12.set(0, 0, 1.0f);
    const Tile t12 = builder12.build();
    // 12 % 4 == 0: BCSR and SELL accept.
    EXPECT_NO_THROW(defaultCodec(FormatKind::BCSR).encode(t12));
    EXPECT_NO_THROW(defaultCodec(FormatKind::SELL).encode(t12));
    // SELL-C-sigma's window of 8 does not divide 12.
    EXPECT_THROW(defaultCodec(FormatKind::SELLCS).encode(t12),
                 FatalError);

    TileBuilder builder6(6);
    builder6.set(0, 0, 1.0f);
    const Tile t6 = builder6.build();
    EXPECT_THROW(defaultCodec(FormatKind::BCSR).encode(t6),
                 FatalError);
    // Formats without divisibility requirements accept any size.
    for (FormatKind kind :
         {FormatKind::Dense, FormatKind::CSR, FormatKind::CSC,
          FormatKind::COO, FormatKind::DOK, FormatKind::LIL,
          FormatKind::ELL, FormatKind::DIA, FormatKind::JDS,
          FormatKind::ELLCOO, FormatKind::BITMAP}) {
        const auto encoded = defaultCodec(kind).encode(t6);
        EXPECT_TRUE(defaultCodec(kind).decode(*encoded) == t6)
            << formatName(kind);
    }
}

} // namespace
} // namespace copernicus
