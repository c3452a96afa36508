/**
 * @file
 * Size-model tests: the analytic byte predictions must match the real
 * codecs exactly for every format, size, density and structure.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "formats/size_model.hh"

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

using Params = std::tuple<FormatKind, Index, double>;

class SizeModelProperty : public testing::TestWithParam<Params>
{
};

TEST_P(SizeModelProperty, PredictionMatchesCodecExactly)
{
    const auto [kind, p, density] = GetParam();
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Tile tile = randomTile(p, density, seed * 97);
        const TileShape shape = measureTile(tile);
        const auto encoded = defaultCodec(kind).encode(tile);
        EXPECT_EQ(predictedBytes(shape, kind), encoded->totalBytes())
            << formatName(kind) << " p=" << p << " d=" << density
            << " seed=" << seed;
        EXPECT_DOUBLE_EQ(predictedUtilization(shape, kind),
                         encoded->bandwidthUtilization());
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, SizeModelProperty,
    testing::Combine(testing::ValuesIn(allFormats()),
                     testing::Values(Index(8), Index(16), Index(32)),
                     testing::Values(0.0, 0.05, 0.3, 1.0)),
    [](const testing::TestParamInfo<Params> &info) {
        return std::string(formatName(std::get<0>(info.param))) + "_p" +
               std::to_string(std::get<1>(info.param)) + "_d" +
               std::to_string(
                   static_cast<int>(std::get<2>(info.param) * 100));
    });

TEST(SizeModelTest, MeasureTileStatistics)
{
    TileBuilder t(8);
    t.set(0, 0, 1);
    t.set(0, 1, 2);
    t.set(3, 3, 3);
    t.set(7, 0, 4);
    const auto shape = measureTile(t.build());
    EXPECT_EQ(shape.p, 8u);
    EXPECT_EQ(shape.nnz, 4u);
    EXPECT_EQ(shape.maxRowNnz, 2u);
    EXPECT_EQ(shape.maxColNnz, 2u);
    // Blocks: (0,0) covers (0,0),(0,1),(3,3); (4,0) covers (7,0).
    EXPECT_EQ(shape.nnzBlocks, 2u);
    // Diagonals: 0 (two entries), +1, -7.
    EXPECT_EQ(shape.nnzDiagonals, 3u);
    // Slices of height 4: widths {2, 1}.
    EXPECT_EQ(shape.sliceWidths, (std::vector<Index>{2, 1}));
}

TEST(SizeModelTest, CustomParamsRespected)
{
    FormatParams params;
    params.ellMinWidth = 2;
    const FormatRegistry registry(params);
    const Tile tile = randomTile(16, 0.05, 5);
    const TileShape shape = measureTile(tile, params);
    const auto encoded = registry.codec(FormatKind::ELL).encode(tile);
    EXPECT_EQ(predictedBytes(shape, FormatKind::ELL, params),
              encoded->totalBytes());
}

TEST(SizeModelTest, DiagonalTilePredictions)
{
    TileBuilder t(16);
    for (Index i = 0; i < 16; ++i)
        t.set(i, i, 1);
    const auto shape = measureTile(t.build());
    EXPECT_EQ(shape.nnzDiagonals, 1u);
    EXPECT_EQ(predictedBytes(shape, FormatKind::DIA), (16u + 1u) * 4u);
    EXPECT_DOUBLE_EQ(predictedUtilization(shape, FormatKind::DIA),
                     16.0 / 17.0);
}

TEST(SizeModelTest, EmptyTilePredictions)
{
    const Tile t(16);
    const auto shape = measureTile(t);
    EXPECT_EQ(predictedBytes(shape, FormatKind::COO), 0u);
    EXPECT_DOUBLE_EQ(predictedUtilization(shape, FormatKind::COO), 0.0);
    // Dense still ships the whole tile.
    EXPECT_EQ(predictedBytes(shape, FormatKind::Dense), 16u * 16u * 4u);
}

} // namespace
} // namespace copernicus
