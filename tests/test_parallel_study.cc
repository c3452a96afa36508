/**
 * @file
 * Determinism contract of the parallel sweep engine: Study::run() and
 * planFormats() must produce bit-identical results at any jobs setting,
 * and a sweep with second-stage compression on repeats exactly.
 */

#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/scheduler.hh"
#include "core/study.hh"
#include "matrix/partitioner.hh"
#include "workloads/generators.hh"

using namespace copernicus;

namespace {

void
expectRowsIdentical(const std::vector<StudyRow> &a,
                    const std::vector<StudyRow> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        const StudyRow &x = a[i];
        const StudyRow &y = b[i];
        SCOPED_TRACE("row " + std::to_string(i) + " (" + x.workload +
                     ", " + std::string(formatName(x.format)) + ", p=" +
                     std::to_string(x.partitionSize) + ")");
        EXPECT_EQ(x.workload, y.workload);
        EXPECT_EQ(x.format, y.format);
        EXPECT_EQ(x.partitionSize, y.partitionSize);
        // Exact equality on purpose, doubles included: the contract is
        // bit-identical rows, not approximately-equal rows.
        EXPECT_EQ(x.meanSigma, y.meanSigma);
        EXPECT_EQ(x.totalCycles, y.totalCycles);
        EXPECT_EQ(x.seconds, y.seconds);
        EXPECT_EQ(x.memoryCycles, y.memoryCycles);
        EXPECT_EQ(x.computeCycles, y.computeCycles);
        EXPECT_EQ(x.balanceRatio, y.balanceRatio);
        EXPECT_EQ(x.throughput, y.throughput);
        EXPECT_EQ(x.bandwidthUtilization, y.bandwidthUtilization);
        EXPECT_EQ(x.totalBytes, y.totalBytes);
        EXPECT_EQ(x.partitions, y.partitions);
        EXPECT_EQ(x.resources.bram18k, y.resources.bram18k);
        EXPECT_EQ(x.resources.ffK, y.resources.ffK);
        EXPECT_EQ(x.resources.lutK, y.resources.lutK);
        EXPECT_EQ(x.resources.calibrated, y.resources.calibrated);
        EXPECT_EQ(x.power.logicW, y.power.logicW);
        EXPECT_EQ(x.power.bramW, y.power.bramW);
        EXPECT_EQ(x.power.signalsW, y.power.signalsW);
        EXPECT_EQ(x.power.staticW, y.power.staticW);
    }
}

StudyResult
runStudy(unsigned jobs, bool compress = false)
{
    Rng rngRandom(11);
    Rng rngBand(12);
    StudyConfig cfg;
    cfg.partitionSizes = {8, 16};
    cfg.jobs = jobs;
    cfg.hls.secondStageCompression = compress;
    Study study(cfg);
    study.addWorkload("random", randomMatrix(96, 0.05, rngRandom));
    study.addWorkload("band", bandMatrix(96, 4, rngBand));
    return study.run();
}

} // namespace

TEST(ParallelStudyTest, RunIsBitIdenticalAcrossJobsSettings)
{
    const StudyResult serial = runStudy(1);
    const StudyResult parallel = runStudy(4);
    expectRowsIdentical(serial.rows, parallel.rows);
}

TEST(ParallelStudyTest, CompressedRunRepeatsExactly)
{
    // The stored bytes of a tile must not depend on what its pool lane
    // compressed before, so two parallel sweeps and a serial one agree
    // on every row, totalBytes and memoryCycles included.
    const StudyResult first = runStudy(4, /*compress=*/true);
    const StudyResult second = runStudy(4, /*compress=*/true);
    const StudyResult serial = runStudy(1, /*compress=*/true);
    expectRowsIdentical(first.rows, second.rows);
    expectRowsIdentical(first.rows, serial.rows);
}

TEST(ParallelStudyTest, PlanFormatsIsBitIdenticalAcrossJobsSettings)
{
    Rng rng(21);
    const TripletMatrix matrix = randomMatrix(128, 0.08, rng);
    const Partitioning parts = partition(matrix, 16);

    const FormatPlan serial =
        planFormats(parts, paperFormats(), SchedulerObjective::Bottleneck,
                    HlsConfig(), defaultRegistry(), 1);
    const FormatPlan parallel =
        planFormats(parts, paperFormats(), SchedulerObjective::Bottleneck,
                    HlsConfig(), defaultRegistry(), 4);
    EXPECT_EQ(serial.perTile, parallel.perTile);
    EXPECT_EQ(serial.histogram, parallel.histogram);
}
