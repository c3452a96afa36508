/**
 * @file
 * FPGA resource/power model tests: Table-2 calibration points come back
 * verbatim, estimates follow the codec hyperparameters through the
 * buffer model, structural extrapolation stays sane, and the power
 * breakdown honors the calibrated totals.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/status.hh"
#include "core/study.hh"
#include "fpga/power_model.hh"
#include "fpga/resource_model.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

/** One Table 2 cell group, as printed in the paper. */
struct Table2Point
{
    FormatKind kind;
    Index p;
    double bram18k, ffK, lutK, dynamicW;
};

/** The paper's Table 2: every measured (format, p) point. */
const Table2Point table2[] = {
    {FormatKind::Dense, 8, 8, 1.5, 0.7, 0.02},
    {FormatKind::Dense, 16, 16, 1.9, 0.7, 0.08},
    {FormatKind::Dense, 32, 32, 4.3, 1.2, 0.03},
    {FormatKind::CSR, 8, 2, 0.7, 0.9, 0.04},
    {FormatKind::CSR, 16, 2, 0.8, 0.9, 0.04},
    {FormatKind::CSR, 32, 8, 3.8, 1.1, 0.07},
    {FormatKind::BCSR, 8, 8, 1.6, 1.2, 0.05},
    {FormatKind::BCSR, 16, 16, 2.4, 1.4, 0.06},
    {FormatKind::BCSR, 32, 32, 4.4, 2.2, 0.06},
    {FormatKind::CSC, 8, 1, 0.9, 1.0, 0.01},
    {FormatKind::CSC, 16, 1, 1.0, 1.2, 0.05},
    {FormatKind::CSC, 32, 9, 2.7, 1.1, 0.03},
    {FormatKind::LIL, 8, 4, 2.9, 1.6, 0.05},
    {FormatKind::LIL, 16, 4, 5.8, 2.7, 0.08},
    {FormatKind::LIL, 32, 6, 9.1, 4.8, 0.07},
    {FormatKind::ELL, 8, 1, 2.0, 0.9, 0.06},
    {FormatKind::ELL, 16, 7, 3.2, 1.0, 0.10},
    {FormatKind::ELL, 32, 9, 0.9, 0.8, 0.06},
    {FormatKind::COO, 8, 3, 1.8, 1.2, 0.02},
    {FormatKind::COO, 16, 3, 1.3, 2.5, 0.04},
    {FormatKind::COO, 32, 8, 3.2, 5.4, 0.04},
    {FormatKind::DIA, 8, 3, 2.2, 1.5, 0.07},
    {FormatKind::DIA, 16, 3, 5.0, 2.8, 0.12},
    {FormatKind::DIA, 32, 11, 9.2, 4.6, 0.05},
};

TEST(ResourceModelTest, PaperPointsReturnTable2Verbatim)
{
    for (const Table2Point &point : table2) {
        SCOPED_TRACE(std::string(formatName(point.kind)) + " p=" +
                     std::to_string(point.p));
        const auto est = estimateResources(point.kind, point.p);
        EXPECT_TRUE(est.calibrated);
        EXPECT_EQ(est.bram18k, point.bram18k);
        EXPECT_EQ(est.ffK, point.ffK);
        EXPECT_EQ(est.lutK, point.lutK);
        EXPECT_NEAR(estimatePower(point.kind, point.p).dynamicW(),
                    point.dynamicW, 1e-12);
    }
}

TEST(ResourceModelTest, CalibrationMatchesTable2Spots)
{
    // Spot-check the rows anchors are read from.
    const auto dense16 = calibrationAnchor(FormatKind::Dense, 16);
    EXPECT_EQ(dense16.kind, FormatKind::Dense);
    EXPECT_EQ(dense16.p, 16u);
    EXPECT_DOUBLE_EQ(dense16.resources.bram18k, 16);
    EXPECT_DOUBLE_EQ(dense16.resources.ffK, 1.9);
    EXPECT_DOUBLE_EQ(dense16.resources.lutK, 0.7);

    const auto dia32 = calibrationAnchor(FormatKind::DIA, 32);
    EXPECT_DOUBLE_EQ(dia32.resources.bram18k, 11);
    EXPECT_DOUBLE_EQ(dia32.resources.ffK, 9.2);

    const auto ell8 = calibrationAnchor(FormatKind::ELL, 8);
    EXPECT_DOUBLE_EQ(ell8.resources.bram18k, 1);
}

TEST(ResourceModelTest, NoCalibrationForExtensionsOrOddSizes)
{
    EXPECT_FALSE(estimateResources(FormatKind::DOK, 16).calibrated);
    EXPECT_FALSE(estimateResources(FormatKind::CSR, 12).calibrated);
    // Each scales its paper sibling at the nearest calibrated size.
    const PaperPoint dok = calibrationAnchor(FormatKind::DOK, 16);
    EXPECT_EQ(dok.kind, FormatKind::COO);
    EXPECT_EQ(dok.p, 16u);
    const PaperPoint csr = calibrationAnchor(FormatKind::CSR, 12);
    EXPECT_EQ(csr.kind, FormatKind::CSR);
    EXPECT_EQ(csr.p, 16u);
    EXPECT_EQ(calibrationAnchor(FormatKind::SELL, 64).p, 32u);
    EXPECT_EQ(calibrationAnchor(FormatKind::SELL, 4).p, 8u);
}

TEST(ResourceModelTest, EstimateReturnsCalibrationWhenAvailable)
{
    const auto est = estimateResources(FormatKind::CSR, 16);
    EXPECT_TRUE(est.calibrated);
    EXPECT_DOUBLE_EQ(est.bram18k, 2);
    EXPECT_DOUBLE_EQ(est.ffK, 0.8);
}

TEST(ResourceModelTest, BcsrMatchesDenseBramUsage)
{
    // Section 6.4: "BCSR utilizes the same blocks as the dense
    // implementation does."
    for (Index p : {8u, 16u, 32u}) {
        EXPECT_DOUBLE_EQ(estimateResources(FormatKind::BCSR, p).bram18k,
                         estimateResources(FormatKind::Dense, p).bram18k);
    }
}

TEST(ResourceModelTest, CsrCscUseFewestBrams)
{
    // Section 6.4: CSR and CSC utilized the lowest BRAM counts.
    for (Index p : {8u, 16u}) {
        const double csr = estimateResources(FormatKind::CSR, p).bram18k;
        const double csc = estimateResources(FormatKind::CSC, p).bram18k;
        for (FormatKind kind :
             {FormatKind::Dense, FormatKind::BCSR, FormatKind::LIL,
              FormatKind::DIA, FormatKind::COO}) {
            const double other = estimateResources(kind, p).bram18k;
            EXPECT_LE(std::min(csr, csc), other)
                << formatName(kind) << " p=" << p;
        }
    }
}

TEST(ResourceModelTest, ExtensionEstimatesArePositive)
{
    for (FormatKind kind : extensionFormats()) {
        for (Index p : {8u, 16u, 32u}) {
            const auto est = estimateResources(kind, p);
            EXPECT_FALSE(est.calibrated);
            EXPECT_GT(est.bram18k, 0.0) << formatName(kind);
            EXPECT_GT(est.ffK, 0.0) << formatName(kind);
            EXPECT_GT(est.lutK, 0.0) << formatName(kind);
        }
    }
}

TEST(ResourceModelTest, UncalibratedPartitionSizeInterpolates)
{
    const auto est = estimateResources(FormatKind::Dense, 64);
    EXPECT_FALSE(est.calibrated);
    // Dense BRAM scales with p: extrapolating past 32 must exceed it.
    EXPECT_GT(est.bram18k, 32.0);
}

TEST(ResourceModelTest, ZeroPartitionIsFatal)
{
    EXPECT_THROW(estimateResources(FormatKind::CSR, 0), FatalError);
}

/**
 * A Study at p = 16 prices resources and power at its own
 * hyperparameters. Wider ELL slabs unroll over more banks, so BRAM and
 * dynamic power rise, and a paper point whose buffers move is no
 * longer Table 2's measurement.
 */
TEST(ResourceModelTest, StudyRowsFollowTheirHyperparameters)
{
    const auto rowsAt = [](const FormatParams &params) {
        StudyConfig cfg;
        cfg.partitionSizes = {16};
        cfg.formats = {FormatKind::ELL, FormatKind::ELLCOO,
                       FormatKind::BCSR};
        cfg.formatParams = params;
        cfg.jobs = 1;
        Study study(cfg);
        Rng rng(7);
        study.addWorkload("random", randomMatrix(128, 0.05, rng));
        return study.run().rows;
    };
    FormatParams wide;
    wide.ellMinWidth = 16;
    wide.ellCooWidth = 8;
    wide.bcsrBlock = 8;
    const auto paper = rowsAt(FormatParams());
    const auto changed = rowsAt(wide);
    ASSERT_EQ(paper.size(), 3u);
    ASSERT_EQ(changed.size(), 3u);

    const StudyRow &ell = paper[0], &ellWide = changed[0];
    EXPECT_TRUE(ell.resources.calibrated);
    EXPECT_EQ(ell.resources.bram18k, 7.0);
    EXPECT_FALSE(ellWide.resources.calibrated);
    // Two arrays of 16 banks against Table 2's two of 6.
    EXPECT_DOUBLE_EQ(ellWide.resources.bram18k, 7.0 * 32 / 12);
    EXPECT_GT(ellWide.power.dynamicW(), ell.power.dynamicW());

    // ELL+COO scales ELL's 7 by its slabs plus the 4/3-block overflow.
    const StudyRow &hybrid = paper[1], &hybridWide = changed[1];
    EXPECT_NEAR(hybrid.resources.bram18k, 7.0 * (2 + 2 + 4.0 / 3) / 12,
                1e-12);
    EXPECT_NEAR(hybridWide.resources.bram18k,
                7.0 * (8 + 8 + 4.0 / 3) / 12, 1e-12);
    EXPECT_GT(hybridWide.power.dynamicW(), hybrid.power.dynamicW());

    // BCSR's block moves its index buffers, not its banks.
    const StudyRow &bcsr = paper[2], &bcsrWide = changed[2];
    EXPECT_TRUE(bcsr.resources.calibrated);
    EXPECT_FALSE(bcsrWide.resources.calibrated);
    EXPECT_EQ(bcsrWide.resources.bram18k, 16.0);
}

TEST(ResourceModelTest, BramNeverFallsAsEllWidthRises)
{
    for (Index p = 8; p <= 64; ++p) {
        for (FormatKind kind : {FormatKind::ELL, FormatKind::ELLCOO}) {
            double last = 0, lastPower = 0;
            for (Index width = 1; width <= p + 2; ++width) {
                FormatParams params;
                params.ellMinWidth = width;
                params.ellCooWidth = width;
                const double bram =
                    estimateResources(kind, p, params).bram18k;
                const double power =
                    estimatePower(kind, p, params).dynamicW();
                EXPECT_GE(bram, last)
                    << formatName(kind) << " p=" << p << " w=" << width;
                EXPECT_GE(power, lastPower)
                    << formatName(kind) << " p=" << p << " w=" << width;
                last = bram;
                lastPower = power;
            }
        }
    }
}

TEST(ResourceModelTest, BcsrBlockAndSellSliceLeaveBramUnchanged)
{
    // Their worst-case values buffers do not depend on the block or
    // the slice, and the index arrays they shrink stay under a bank.
    for (Index p : {8u, 16u, 32u}) {
        const double bcsr = estimateResources(FormatKind::BCSR, p).bram18k;
        const double sell = estimateResources(FormatKind::SELL, p).bram18k;
        for (Index size = 4; size <= p; size *= 2) {
            FormatParams params;
            params.bcsrBlock = size;
            params.sellSlice = size;
            EXPECT_EQ(estimateResources(FormatKind::BCSR, p, params)
                          .bram18k,
                      bcsr)
                << "p=" << p << " block=" << size;
            EXPECT_EQ(estimateResources(FormatKind::SELL, p, params)
                          .bram18k,
                      sell)
                << "p=" << p << " slice=" << size;
        }
    }
}

TEST(ResourceModelTest, RejectedHyperparametersAreFatal)
{
    // The buffer sizes divide by the block and the slice height; the
    // codecs' own check rejects a zero first.
    FormatParams params;
    params.bcsrBlock = 0;
    params.sellSlice = 0;
    for (FormatKind kind :
         {FormatKind::BCSR, FormatKind::SELL, FormatKind::SELLCS}) {
        const std::string why = formatParamsViolation(params, kind);
        ASSERT_FALSE(why.empty()) << formatName(kind);
        try {
            estimateResources(kind, 16, params);
            ADD_FAILURE() << formatName(kind) << " resources estimated";
        } catch (const FatalError &err) {
            EXPECT_EQ(err.what(), why);
        }
        try {
            estimatePower(kind, 16, params);
            ADD_FAILURE() << formatName(kind) << " power estimated";
        } catch (const FatalError &err) {
            EXPECT_EQ(err.what(), why);
        }
    }
}

TEST(ResourceModelTest, UtilizationPercentages)
{
    const ResourceEstimate est{14.0, 10.64, 5.32, true};
    const auto util = utilization(est);
    EXPECT_DOUBLE_EQ(util.bramPct, 10.0);
    EXPECT_DOUBLE_EQ(util.ffPct, 10.0);
    EXPECT_DOUBLE_EQ(util.lutPct, 10.0);
}

TEST(ResourceModelTest, AllPaperPointsFitTheDevice)
{
    const DeviceCapacity device;
    for (FormatKind kind : paperFormats()) {
        for (Index p : {8u, 16u, 32u}) {
            const auto est = estimateResources(kind, p);
            EXPECT_LT(est.bram18k, device.bram18k);
            EXPECT_LT(est.ffK, device.ffK);
            EXPECT_LT(est.lutK, device.lutK);
        }
    }
}

TEST(ResourceModelTest, EllFfPeaksAtMidPartition)
{
    // Section 6.4: smaller ELL partitions buffer in flip-flops rather
    // than BRAM, so FF usage *drops* at p=32 (Table 2: 2.0/3.2/0.9).
    const double ff8 = estimateResources(FormatKind::ELL, 8).ffK;
    const double ff16 = estimateResources(FormatKind::ELL, 16).ffK;
    const double ff32 = estimateResources(FormatKind::ELL, 32).ffK;
    EXPECT_GT(ff16, ff8);
    EXPECT_LT(ff32, ff8);
}

TEST(ResourceModelTest, LilAndDiaFfGrowSteeplyWithPartition)
{
    // Table 2's FF columns: LIL 2.9/5.8/9.1 and DIA 2.2/5.0/9.2 —
    // the wide parallel merge structures scale with p.
    for (FormatKind kind : {FormatKind::LIL, FormatKind::DIA}) {
        const double ff8 = estimateResources(kind, 8).ffK;
        const double ff32 = estimateResources(kind, 32).ffK;
        EXPECT_GT(ff32, 3.0 * ff8) << formatName(kind);
    }
}

TEST(PowerModelTest, CalibratedTotalsMatchTable2)
{
    EXPECT_DOUBLE_EQ(calibrationAnchor(FormatKind::Dense, 16).dynamicW,
                     0.08);
    EXPECT_DOUBLE_EQ(calibrationAnchor(FormatKind::DIA, 16).dynamicW,
                     0.12);
    EXPECT_DOUBLE_EQ(calibrationAnchor(FormatKind::CSC, 8).dynamicW,
                     0.01);
    // DOK has no measurement of its own: it scales COO's.
    EXPECT_EQ(calibrationAnchor(FormatKind::DOK, 16).kind,
              FormatKind::COO);
}

TEST(PowerModelTest, BreakdownSumsToCalibratedTotal)
{
    for (const Table2Point &point : table2) {
        const auto power = estimatePower(point.kind, point.p);
        EXPECT_NEAR(power.dynamicW(), point.dynamicW, 1e-9)
            << formatName(point.kind) << " p=" << point.p;
        EXPECT_GT(power.logicW, 0.0);
        EXPECT_GT(power.bramW, 0.0);
        EXPECT_GT(power.signalsW, 0.0);
    }
}

TEST(PowerModelTest, StaticPowerGroups)
{
    // Section 6.4's two static-power groups.
    for (FormatKind kind : {FormatKind::Dense, FormatKind::CSR,
                            FormatKind::BCSR, FormatKind::LIL,
                            FormatKind::ELL}) {
        EXPECT_DOUBLE_EQ(paperStaticPower(kind), 0.121);
    }
    for (FormatKind kind :
         {FormatKind::CSC, FormatKind::COO, FormatKind::DIA}) {
        EXPECT_DOUBLE_EQ(paperStaticPower(kind), 0.103);
    }
}

TEST(PowerModelTest, EstimateIncludesStatic)
{
    const auto power = estimatePower(FormatKind::COO, 16);
    EXPECT_DOUBLE_EQ(power.staticW, 0.103);
    EXPECT_DOUBLE_EQ(power.totalW(), power.dynamicW() + power.staticW);
}

TEST(PowerModelTest, ExtensionPowerIsAnchoredAndPositive)
{
    for (FormatKind kind : extensionFormats()) {
        const auto power = estimatePower(kind, 16);
        EXPECT_GT(power.dynamicW(), 0.0) << formatName(kind);
        EXPECT_LT(power.dynamicW(), 1.0) << formatName(kind);
    }
}

TEST(PowerModelTest, SignalsDominateTheBreakdown)
{
    // Section 6.4: overall dynamic power "more generally follows the
    // same trend as the power consumption of signals".
    int signal_heavy = 0, total = 0;
    for (FormatKind kind : paperFormats()) {
        for (Index p : {8u, 16u, 32u}) {
            const auto power = estimatePower(kind, p);
            signal_heavy += power.signalsW >= power.bramW &&
                            power.signalsW >= power.logicW;
            ++total;
        }
    }
    EXPECT_GT(signal_heavy * 2, total);
}

} // namespace
} // namespace copernicus
