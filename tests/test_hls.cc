/**
 * @file
 * HLS model tests: schedule arithmetic, the AXI transfer model, and the
 * per-format decompressor cycle walkers including the paper's headline
 * ordering claims.
 */

#include <algorithm>
#include <bit>
#include <cstdint>
#include <functional>

#include <gtest/gtest.h>

#include "common/math.hh"
#include "common/rng.hh"
#include "formats/registry.hh"
#include "hls/axi.hh"
#include "hls/decompressor.hh"
#include "hls/dram.hh"
#include "hls/schedule_ir.hh"
#include "kernels/spmv.hh"

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

DecompressResult
simulate(FormatKind kind, const Tile &tile,
         const HlsConfig &cfg = HlsConfig())
{
    const auto encoded = defaultCodec(kind).encode(tile);
    return simulateDecompression(*encoded, cfg);
}

TEST(ScheduleTest, PipelinedLoop)
{
    EXPECT_EQ(pipelinedLoop<Cycles>(0, 4), 0u);
    EXPECT_EQ(pipelinedLoop<Cycles>(1, 4), 4u);
    EXPECT_EQ(pipelinedLoop<Cycles>(10, 4), 13u);
    EXPECT_EQ(pipelinedLoop<Cycles>(10, 4, 2), 22u);
}

TEST(AxiTest, SingleStream)
{
    HlsConfig cfg;
    // 8 bytes/cycle, setup 8: 1024 bytes -> 128 + 8.
    EXPECT_EQ(transferCycles(std::vector<Bytes>{1024}, cfg), 136u);
}

TEST(AxiTest, PartialWordRoundsUp)
{
    HlsConfig cfg;
    EXPECT_EQ(transferCycles(std::vector<Bytes>{9}, cfg),
              2u + cfg.burstSetupCycles);
}

TEST(AxiTest, NoBytesNoCycles)
{
    HlsConfig cfg;
    EXPECT_EQ(transferCycles({}, cfg), 0u);
    EXPECT_EQ(transferCycles(std::vector<Bytes>{0, 0}, cfg), 0u);
}

TEST(AxiTest, TwoLanesOverlapStreams)
{
    HlsConfig cfg; // 2 streamlines
    // Two equal streams ride different lanes: latency of one.
    EXPECT_EQ(transferCycles(std::vector<Bytes>{800, 800}, cfg),
              100u + cfg.burstSetupCycles);
    // The longer stream defines latency.
    EXPECT_EQ(transferCycles(std::vector<Bytes>{1600, 800}, cfg),
              200u + cfg.burstSetupCycles);
}

TEST(AxiTest, LptPacksThreeStreamsOntoTwoLanes)
{
    HlsConfig cfg;
    // {800, 480, 320}: LPT puts 800 alone, 480+320 together.
    EXPECT_EQ(transferCycles(std::vector<Bytes>{800, 480, 320}, cfg),
              100u + cfg.burstSetupCycles);
}

TEST(AxiTest, SingleLaneSerializes)
{
    HlsConfig cfg;
    cfg.streamlines = 1;
    EXPECT_EQ(transferCycles(std::vector<Bytes>{800, 800}, cfg),
              200u + cfg.burstSetupCycles);
}

TEST(AxiTest, ZeroLanesIsFatal)
{
    HlsConfig cfg;
    cfg.streamlines = 0;
    EXPECT_THROW(transferCycles(std::vector<Bytes>{8}, cfg),
                 FatalError);
}

TEST(AxiTest, LptAgreesWithAFullLaneReference)
{
    // Up to maxTransferStreams streams over 1..8 lanes, each stream on
    // the first least-loaded of all `streamlines` lanes, zero-byte
    // streams and ties included.
    Rng rng(31);
    for (int trial = 0; trial < 400; ++trial) {
        HlsConfig cfg;
        cfg.streamlines = 1 + static_cast<unsigned>(trial % 8);
        std::vector<Bytes> streams(1 + trial % maxTransferStreams);
        for (Bytes &bytes : streams)
            bytes = rng.chance(0.2) ? 0 : 8 * (1 + trial % 5) +
                                              (rng.chance(0.5) ? 40 : 0);
        std::vector<Bytes> sorted = streams;
        std::sort(sorted.begin(), sorted.end(), std::greater<>());
        std::vector<Bytes> lanes(cfg.streamlines, 0);
        for (Bytes bytes : sorted)
            *std::min_element(lanes.begin(), lanes.end()) += bytes;
        const Bytes busiest = *std::max_element(lanes.begin(), lanes.end());
        const Cycles want =
            busiest == 0 ? 0
                         : ceilDiv(busiest, cfg.laneBytesPerCycle()) +
                               cfg.burstSetupCycles;
        EXPECT_EQ(transferCycles(streams, cfg), want)
            << streams.size() << " streams, " << cfg.streamlines
            << " lanes";
    }
}

TEST(AxiTest, MoreStreamsThanOneTransferIsAPanic)
{
    HlsConfig cfg;
    EXPECT_THROW(transferCycles(
                     std::vector<Bytes>(maxTransferStreams + 1, 8), cfg),
                 PanicError);
}

TEST(AxiTest, WritebackCycles)
{
    HlsConfig cfg;
    EXPECT_EQ(writebackCycles(0, cfg), 0u);
    EXPECT_EQ(writebackCycles(64, cfg), 8u + cfg.burstSetupCycles);
}

TEST(DramTest, ZeroBytesCostNothing)
{
    EXPECT_EQ(dramServiceCycles(0, DramConfig(), 250.0), 0u);
}

TEST(DramTest, SingleRowTransfer)
{
    DramConfig dram;
    // 64 bytes: tRCD + tCL + 64/16 data cycles = 11+11+4 = 26 memory
    // cycles at 800 MHz -> ceil(26 * 250/800) = ceil(8.125) = 9.
    EXPECT_EQ(dramServiceCycles(64, dram, 250.0), 9u);
}

TEST(DramTest, RowCrossingAddsPrechargeActivate)
{
    DramConfig dram;
    const Cycles one_row = dramServiceCycles(dram.rowBytes, dram,
                                             800.0);
    const Cycles two_rows = dramServiceCycles(2 * dram.rowBytes, dram,
                                              800.0);
    // Second row adds tRP + tRCD plus its data cycles.
    EXPECT_EQ(two_rows - one_row,
              dram.tRp + dram.tRcd + dram.rowBytes /
                                         dram.bytesPerCycle());
}

TEST(DramTest, MonotoneInBytes)
{
    DramConfig dram;
    Cycles prev = 0;
    for (Bytes bytes : {64u, 512u, 4096u, 65536u}) {
        const Cycles cycles = dramServiceCycles(bytes, dram, 250.0);
        EXPECT_GE(cycles, prev);
        prev = cycles;
    }
}

TEST(DramTest, InvalidClocksAreFatal)
{
    EXPECT_THROW(dramServiceCycles(64, DramConfig(), 0.0), FatalError);
    DramConfig bad;
    bad.busClockMhz = 0.0;
    EXPECT_THROW(dramServiceCycles(64, bad, 250.0), FatalError);
}

TEST(DramTest, AxiUsesDramModelWhenEnabled)
{
    HlsConfig cfg;
    cfg.useDramModel = true;
    const Cycles via_axi =
        transferCycles(std::vector<Bytes>{1024, 512}, cfg);
    EXPECT_EQ(via_axi,
              dramServiceCycles(1536, cfg.dram, cfg.clockMhz));
    EXPECT_EQ(writebackCycles(64, cfg),
              dramServiceCycles(64, cfg.dram, cfg.clockMhz));
}

TEST(DramTest, SequentialStreamBeatsFlatModelForLargeTransfers)
{
    // DDR3 at 800 MHz delivers 16 B per memory cycle ~ 6.4 GB/s, more
    // than two 64-bit AXI lanes at 250 MHz (4 GB/s): for long bursts
    // the DRAM-modelled transfer is faster.
    HlsConfig flat;
    HlsConfig timed;
    timed.useDramModel = true;
    const std::vector<Bytes> big = {1 << 20};
    EXPECT_LT(transferCycles(big, timed), transferCycles(big, flat));
}

TEST(HlsConfigTest, DotLatencyGrowsLogarithmically)
{
    HlsConfig cfg;
    EXPECT_EQ(cfg.dotLatency(8), 1u + 3u + 1u);
    EXPECT_EQ(cfg.dotLatency(16), 1u + 4u + 1u);
    EXPECT_EQ(cfg.dotLatency(32), 1u + 5u + 1u);
}

TEST(DecompressorTest, DenseSigmaIsExactlyOne)
{
    // Eq. 1: the dense baseline defines sigma = 1 at any density.
    HlsConfig cfg;
    for (Index p : {8u, 16u, 32u}) {
        for (double d : {0.1, 0.9}) {
            const Tile tile = randomTile(p, d, p + 1);
            const auto result = simulate(FormatKind::Dense, tile, cfg);
            EXPECT_EQ(result.decompressCycles, 0u);
            EXPECT_EQ(result.rowsProduced, p);
            EXPECT_DOUBLE_EQ(sigmaOverhead(result, p, cfg), 1.0);
        }
    }
}

/** The walker must reconstruct the exact tile for every format. */
class DecompressorFormatTest : public testing::TestWithParam<FormatKind>
{
};

TEST_P(DecompressorFormatTest, DecodedTileMatchesSource)
{
    for (Index p : {8u, 16u, 32u}) {
        for (double density : {0.02, 0.2, 0.8}) {
            const Tile tile = randomTile(p, density, 100 * p + 3);
            const auto result = simulate(GetParam(), tile);
            EXPECT_TRUE(result.decoded == tile)
                << formatName(GetParam()) << " p=" << p;
        }
    }
}

TEST_P(DecompressorFormatTest, EmptyTileCostsNothingMuch)
{
    const Tile tile(16);
    const auto result = simulate(GetParam(), tile);
    EXPECT_TRUE(result.decoded == tile);
    // Formats that skip zero rows produce none; row-oblivious formats
    // (dense/ELL-family) still push all 16 rows.
    if (GetParam() == FormatKind::Dense ||
        GetParam() == FormatKind::ELL ||
        GetParam() == FormatKind::SELL ||
        GetParam() == FormatKind::ELLCOO ||
        GetParam() == FormatKind::SELLCS) {
        EXPECT_EQ(result.rowsProduced, 16u);
    } else {
        EXPECT_EQ(result.rowsProduced, 0u);
    }
}

TEST_P(DecompressorFormatTest, WalkerAndKernelAgreeOnSemantics)
{
    // The cycle walker's reconstructed tile and the codec's decoder
    // must describe the same matrix: y computed from the walker's tile
    // equals y computed from the encoding, bit for bit.
    const Tile tile = randomTile(16, 0.25, 41);
    const auto encoded = defaultCodec(GetParam()).encode(tile);
    const auto result = simulateDecompression(*encoded, HlsConfig());

    Rng rng(42);
    std::vector<Value> x(16);
    for (auto &v : x)
        v = static_cast<Value>(rng.range(-1.0, 1.0));
    const auto from_decoded = spmvDense(result.decoded, x);
    const auto from_encoded = spmvEncoded(*encoded, x);
    for (Index i = 0; i < 16; ++i)
        EXPECT_EQ(std::bit_cast<std::uint32_t>(from_decoded[i]),
                  std::bit_cast<std::uint32_t>(from_encoded[i]))
            << formatName(GetParam()) << " row=" << i;
}

TEST_P(DecompressorFormatTest, SigmaIsPositive)
{
    HlsConfig cfg;
    const Tile tile = randomTile(16, 0.2, 5);
    const auto result = simulate(GetParam(), tile, cfg);
    EXPECT_GT(sigmaOverhead(result, 16, cfg), 0.0);
}

INSTANTIATE_TEST_SUITE_P(AllFormats, DecompressorFormatTest,
                         testing::ValuesIn(allFormats()),
                         [](const testing::TestParamInfo<FormatKind> &i) {
                             return std::string(formatName(i.param));
                         });

TEST(DecompressorTest, CscIsWorstOnDenseTiles)
{
    // Section 6.1: the orientation mismatch makes CSC the worst case.
    HlsConfig cfg;
    const Tile tile = randomTile(16, 0.5, 21);
    const double csc =
        sigmaOverhead(simulate(FormatKind::CSC, tile, cfg), 16, cfg);
    for (FormatKind kind : paperFormats()) {
        if (kind == FormatKind::CSC)
            continue;
        const double other =
            sigmaOverhead(simulate(kind, tile, cfg), 16, cfg);
        EXPECT_GT(csc, other) << "vs " << formatName(kind);
    }
    // "Up to 21x-30x slower" at high density: order of magnitude check.
    EXPECT_GT(csc, 10.0);
    EXPECT_LT(csc, 60.0);
}

TEST(DecompressorTest, SigmaGrowsWithDensityForCooCsrCsc)
{
    // Fig. 5: sigma increases with density, dramatically for
    // COO/CSR/CSC.
    HlsConfig cfg;
    for (FormatKind kind :
         {FormatKind::COO, FormatKind::CSR, FormatKind::CSC}) {
        double prev = 0;
        for (double density : {0.05, 0.2, 0.5, 0.9}) {
            const Tile tile = randomTile(16, density, 31);
            const double sigma =
                sigmaOverhead(simulate(kind, tile, cfg), 16, cfg);
            EXPECT_GT(sigma, prev) << formatName(kind) << " at "
                                   << density;
            prev = sigma;
        }
    }
}

TEST(DecompressorTest, EllSigmaIndependentOfSparsityPattern)
{
    // Section 6.1: ELL processes the whole compressed square no matter
    // where the non-zeros sit.
    HlsConfig cfg;
    TileBuilder a(16), b(16);
    a.set(0, 0, 1);
    a.set(5, 3, 2);
    b.set(15, 15, 1);
    b.set(8, 2, 2);
    const auto ra = simulate(FormatKind::ELL, a.build(), cfg);
    const auto rb = simulate(FormatKind::ELL, b.build(), cfg);
    EXPECT_EQ(ra.decompressCycles, rb.decompressCycles);
    EXPECT_EQ(ra.rowsProduced, 16u);
}

TEST(DecompressorTest, EllSigmaDecreasesWithPartitionSize)
{
    // Fig. 7: ELL's relative overhead shrinks as p grows.
    HlsConfig cfg;
    double prev = 1e9;
    for (Index p : {8u, 16u, 32u}) {
        const Tile tile = randomTile(p, 0.05, p);
        const double sigma =
            sigmaOverhead(simulate(FormatKind::ELL, tile, cfg), p, cfg);
        EXPECT_LT(sigma, prev);
        prev = sigma;
    }
}

TEST(DecompressorTest, CsrLatencyScalesWithRowPopulation)
{
    HlsConfig cfg;
    TileBuilder sparse(16), full(16);
    sparse.set(3, 3, 1);
    for (Index r = 0; r < 16; ++r)
        for (Index c = 0; c < 16; ++c)
            full.set(r, c, 1);
    EXPECT_LT(simulate(FormatKind::CSR, sparse.build(), cfg).decompressCycles,
              simulate(FormatKind::CSR, full.build(), cfg).decompressCycles);
}

TEST(DecompressorTest, BcsrProcessesWholeBlockRows)
{
    // One non-zero in one block still pushes 4 rows through the dot
    // engine (Listing 2's "whether they are all zero or not").
    TileBuilder t(16);
    t.set(5, 5, 1);
    const auto result = simulate(FormatKind::BCSR, t.build());
    EXPECT_EQ(result.rowsProduced, 4u);
}

TEST(DecompressorTest, DiaCostScalesWithDiagonalCount)
{
    HlsConfig cfg;
    TileBuilder one_diag(16), many_diags(16);
    for (Index i = 0; i < 16; ++i)
        one_diag.set(i, i, 1);
    // Same nnz scattered over many diagonals (Listing 7 discussion).
    for (Index i = 0; i < 16; ++i)
        many_diags.set(i, (i * 7) % 16, 1);
    EXPECT_LT(
        simulate(FormatKind::DIA, one_diag.build(), cfg).decompressCycles,
        simulate(FormatKind::DIA, many_diags.build(), cfg).decompressCycles);
}

TEST(DecompressorTest, LilBoundByLongestColumn)
{
    HlsConfig cfg;
    TileBuilder spread(16), stacked(16);
    // Same nnz: spread across columns vs stacked in one column.
    for (Index i = 0; i < 8; ++i)
        spread.set(i, i, 1);
    for (Index i = 0; i < 8; ++i)
        stacked.set(i, 0, 1);
    const auto rs = simulate(FormatKind::LIL, spread.build(), cfg);
    const auto rt = simulate(FormatKind::LIL, stacked.build(), cfg);
    EXPECT_LE(rs.decompressCycles, rt.decompressCycles);
}

TEST(DecompressorTest, DokSlowerThanCoo)
{
    HlsConfig cfg;
    const Tile tile = randomTile(16, 0.3, 77);
    EXPECT_GT(simulate(FormatKind::DOK, tile, cfg).decompressCycles,
              simulate(FormatKind::COO, tile, cfg).decompressCycles);
}

TEST(DecompressorTest, VerifiedCostEqualsTheDecodedTilesCost)
{
    // The in-place check prices a tile exactly as a decoded twin does.
    HlsConfig cfg;
    for (FormatKind kind : allFormats()) {
        for (double density : {0.0, 0.1, 0.6}) {
            const Tile tile = randomTile(16, density, 41);
            const auto encoded = defaultCodec(kind).encode(tile);
            const DecompressCost verified =
                verifyDecompression(*encoded, tile, cfg);
            const DecompressResult decoded =
                simulateDecompression(*encoded, cfg);
            EXPECT_TRUE(decoded.decoded == tile) << formatName(kind);
            EXPECT_EQ(verified.decompressCycles, decoded.decompressCycles)
                << formatName(kind);
            EXPECT_EQ(verified.rowsProduced, decoded.rowsProduced)
                << formatName(kind);
            EXPECT_EQ(verified.tileSize, 16u) << formatName(kind);
            EXPECT_EQ(decoded.tileSize, 16u) << formatName(kind);
        }
    }
}

TEST(DecompressorTest, ComputeCyclesCombineDecompAndDots)
{
    HlsConfig cfg;
    const Tile tile = randomTile(16, 0.2, 88);
    const auto result = simulate(FormatKind::CSR, tile, cfg);
    EXPECT_EQ(computeCycles(result, cfg),
              result.decompressCycles +
                  Cycles(result.rowsProduced) * cfg.dotLatency(16));
}

} // namespace
} // namespace copernicus
