/**
 * @file
 * Property tests over every codec: lossless round-trip and byte
 * accounting across formats x partition sizes x densities x structures.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "common/rng.hh"
#include "formats/registry.hh"

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

class CodecProperty : public testing::TestWithParam<Params>
{
  protected:
    FormatKind kind() const { return std::get<0>(GetParam()); }
    Index p() const { return std::get<1>(GetParam()); }
    double density() const { return std::get<2>(GetParam()); }
    const FormatCodec &codec() const { return defaultCodec(kind()); }
};

TEST_P(CodecProperty, RoundTripIsLossless)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        const Tile tile = randomTile(p(), density(), seed);
        const auto encoded = codec().encode(tile);
        const Tile back = codec().decode(*encoded);
        EXPECT_TRUE(back == tile)
            << formatName(kind()) << " p=" << p() << " seed=" << seed;
    }
}

TEST_P(CodecProperty, UsefulBytesEqualNnzPayload)
{
    const Tile tile = randomTile(p(), density(), 7);
    const auto encoded = codec().encode(tile);
    EXPECT_EQ(encoded->usefulBytes(), Bytes(tile.nnz()) * valueBytes);
    EXPECT_EQ(encoded->nnz(), tile.nnz());
    EXPECT_EQ(encoded->tileSize(), p());
}

TEST_P(CodecProperty, TotalBytesCoverUsefulBytes)
{
    const Tile tile = randomTile(p(), density(), 11);
    const auto encoded = codec().encode(tile);
    EXPECT_GE(encoded->totalBytes(), encoded->usefulBytes());
    EXPECT_EQ(encoded->totalBytes(),
              encoded->usefulBytes() + encoded->metadataBytes());
    double util = encoded->bandwidthUtilization();
    EXPECT_GE(util, 0.0);
    EXPECT_LE(util, 1.0);
}

TEST_P(CodecProperty, StreamsSumToTotal)
{
    const Tile tile = randomTile(p(), density(), 13);
    const auto encoded = codec().encode(tile);
    Bytes sum = 0;
    for (Bytes s : encoded->streams())
        sum += s;
    EXPECT_EQ(sum, encoded->totalBytes());
}

INSTANTIATE_TEST_SUITE_P(
    AllFormats, CodecProperty,
    testing::Combine(testing::ValuesIn(allFormats()),
                     testing::Values(Index(8), Index(16), Index(32)),
                     testing::Values(0.01, 0.1, 0.5, 1.0)),
    [](const testing::TestParamInfo<Params> &info) {
        return std::string(formatName(std::get<0>(info.param))) + "_p" +
               std::to_string(std::get<1>(info.param)) + "_d" +
               std::to_string(
                   static_cast<int>(std::get<2>(info.param) * 100));
    });

/** Structured edge-case tiles, parameterized over format only. */
class CodecEdgeCases : public testing::TestWithParam<FormatKind>
{
  protected:
    const FormatCodec &codec() const { return defaultCodec(GetParam()); }

    void
    expectRoundTrip(const Tile &tile)
    {
        const auto encoded = codec().encode(tile);
        EXPECT_TRUE(codec().decode(*encoded) == tile)
            << formatName(GetParam());
    }
};

TEST_P(CodecEdgeCases, EmptyTile)
{
    for (Index p : {8u, 16u, 32u}) {
        Tile t(p);
        const auto encoded = codec().encode(t);
        EXPECT_EQ(encoded->usefulBytes(), 0u);
        EXPECT_TRUE(codec().decode(*encoded) == t);
    }
}

TEST_P(CodecEdgeCases, SingleEntryCorners)
{
    const Index p = 16;
    const Index corners[][2] = {
        {0, 0}, {0, p - 1}, {p - 1, 0}, {p - 1, p - 1}};
    for (const auto &corner : corners) {
        TileBuilder t(p);
        t.set(corner[0], corner[1], 42.0f);
        expectRoundTrip(t.build());
    }
}

TEST_P(CodecEdgeCases, FullTile)
{
    TileBuilder t(16);
    for (Index r = 0; r < 16; ++r)
        for (Index c = 0; c < 16; ++c)
            t.set(r, c, static_cast<Value>(r * 16 + c + 1));
    expectRoundTrip(t.build());
}

TEST_P(CodecEdgeCases, PureDiagonalTile)
{
    TileBuilder t(16);
    for (Index i = 0; i < 16; ++i)
        t.set(i, i, static_cast<Value>(i + 1));
    expectRoundTrip(t.build());
}

TEST_P(CodecEdgeCases, AntiDiagonalTile)
{
    TileBuilder t(16);
    for (Index i = 0; i < 16; ++i)
        t.set(i, 15 - i, static_cast<Value>(i + 1));
    expectRoundTrip(t.build());
}

TEST_P(CodecEdgeCases, SingleDenseRow)
{
    TileBuilder t(16);
    for (Index c = 0; c < 16; ++c)
        t.set(7, c, static_cast<Value>(c + 1));
    expectRoundTrip(t.build());
}

TEST_P(CodecEdgeCases, SingleDenseColumn)
{
    TileBuilder t(16);
    for (Index r = 0; r < 16; ++r)
        t.set(r, 7, static_cast<Value>(r + 1));
    expectRoundTrip(t.build());
}

TEST_P(CodecEdgeCases, FirstAndLastRowOnly)
{
    TileBuilder t(16);
    t.set(0, 3, 1.0f);
    t.set(15, 12, 2.0f);
    expectRoundTrip(t.build());
}

TEST_P(CodecEdgeCases, NegativeValuesSurvive)
{
    TileBuilder t(8);
    t.set(1, 2, -3.5f);
    t.set(6, 6, -0.001f);
    expectRoundTrip(t.build());
}

TEST_P(CodecEdgeCases, BandedTile)
{
    TileBuilder t(16);
    for (Index r = 0; r < 16; ++r) {
        for (Index c = (r > 2 ? r - 2 : 0); c < std::min<Index>(16, r + 3);
             ++c) {
            t.set(r, c, static_cast<Value>(r + c + 1));
        }
    }
    expectRoundTrip(t.build());
}

INSTANTIATE_TEST_SUITE_P(AllFormats, CodecEdgeCases,
                         testing::ValuesIn(allFormats()),
                         [](const testing::TestParamInfo<FormatKind> &i) {
                             return std::string(formatName(i.param));
                         });

} // namespace
} // namespace copernicus
