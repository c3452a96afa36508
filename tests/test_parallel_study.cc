/**
 * @file
 * Determinism contract of the parallel sweep engine: Study::run() and
 * planFormats() must produce bit-identical results at any jobs setting,
 * a sweep with second-stage compression on repeats exactly, a matrix
 * holding a NaN sweeps as it would with a number there, a cancelled
 * journaled sweep resumes to the uninterrupted result, and a
 * (workload, partition size) whose every row the journal holds is
 * never partitioned.
 */

#include <atomic>
#include <cstdio>
#include <limits>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include <gtest/gtest.h>
#include <unistd.h>

#include "common/rng.hh"
#include "common/status.hh"
#include "core/scheduler.hh"
#include "core/study.hh"
#include "matrix/partitioner.hh"
#include "store/sweep_journal.hh"
#include "trace/span.hh"
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

StudyConfig
studyConfig(unsigned jobs, bool compress = false)
{
    StudyConfig cfg;
    cfg.partitionSizes = {8, 16};
    cfg.jobs = jobs;
    cfg.hls.secondStageCompression = compress;
    return cfg;
}

StudyResult
runStudy(const StudyConfig &cfg)
{
    Rng rngRandom(11);
    Rng rngBand(12);
    Study study(cfg);
    study.addWorkload("random", randomMatrix(96, 0.05, rngRandom));
    study.addWorkload("band", bandMatrix(96, 4, rngBand));
    return study.run();
}

StudyResult
runStudy(unsigned jobs, bool compress = false)
{
    return runStudy(studyConfig(jobs, compress));
}

std::string
csvOf(const StudyResult &result)
{
    std::ostringstream out;
    result.writeCsv(out);
    return out.str();
}

} // namespace

TEST(ParallelStudyTest, RunIsBitIdenticalAcrossJobsSettings)
{
    const StudyResult serial = runStudy(1);
    for (const unsigned jobs : {2u, 3u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        expectRowsIdentical(serial.rows, runStudy(jobs).rows);
    }
}

TEST(ParallelStudyTest, MoreLanesThanCombinationsIsBitIdentical)
{
    // One (workload, p): the lanes that do not partition it wait for
    // the lane that does.
    const auto oneCombination = [](unsigned jobs) {
        StudyConfig cfg;
        cfg.partitionSizes = {16};
        cfg.jobs = jobs;
        Rng rng(13);
        Study study(cfg);
        study.addWorkload("random", randomMatrix(96, 0.05, rng));
        return study.run();
    };
    const StudyResult serial = oneCombination(1);
    ASSERT_EQ(serial.rows.size(), paperFormats().size());
    expectRowsIdentical(serial.rows, oneCombination(4).rows);
}

TEST(ParallelStudyTest, NanEntrySweepsAsANumberDoes)
{
    // MatrixMarket input may hold nan. Every tile that holds it passes
    // the decode check, and no row field depends on a value, so the
    // sweep equals the one with that entry set to 1.0 at any jobs.
    Rng rng(14);
    const TripletMatrix base = randomMatrix(64, 0.05, rng);
    const auto sweep = [&](Value first, unsigned jobs) {
        TripletMatrix m(base.rows(), base.cols());
        for (const Triplet &t : base.triplets())
            m.add(t.row, t.col,
                  &t == &base.triplets().front() ? first : t.value);
        m.finalize();
        StudyConfig cfg;
        cfg.jobs = jobs;
        cfg.hls.secondStageCompression = false;
        Study study(cfg);
        study.addWorkload("nan", std::move(m));
        return study.run();
    };
    const Value nan = std::numeric_limits<Value>::quiet_NaN();
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const StudyResult withNan = sweep(nan, jobs);
        ASSERT_EQ(withNan.rows.size(), 24u);
        expectRowsIdentical(withNan.rows, sweep(1.0f, jobs).rows);
    }
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

TEST(ParallelStudyTest, CancelThenResumeMatchesAtEveryJobs)
{
    const std::string baseline = csvOf(runStudy(1));
    const std::size_t points = 2 * 2 * paperFormats().size();
    const int budget = 10;
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const std::string path = ::testing::TempDir() +
                                 "parallel_resume_" +
                                 std::to_string(::getpid()) + "_" +
                                 std::to_string(jobs) + ".ndjson";
        std::remove(path.c_str());
        const StudyConfig cfg = studyConfig(jobs);
        const JournalIdentity id{1, 0, sweepConfigHash(cfg)};

        // Every lane polls one shared budget; exactly `budget` polls
        // let their design point run, and each of those is journaled
        // before the CancelledError leaves run().
        {
            StudyConfig interrupted = cfg;
            auto polls = std::make_shared<std::atomic<int>>(budget);
            interrupted.cancelCheck = [polls] {
                return polls->fetch_sub(1) <= 0;
            };
            interrupted.journal = std::make_shared<SweepJournal>(path, id);
            EXPECT_THROW(runStudy(interrupted), CancelledError);
        }

        // The resumed run restores those rows, evaluates the rest, and
        // writes the uninterrupted CSV.
        StudyConfig resumed = cfg;
        resumed.journal = std::make_shared<SweepJournal>(path, id);
        EXPECT_EQ(resumed.journal->resumedCells(),
                  static_cast<std::size_t>(budget));
        EXPECT_LT(static_cast<std::size_t>(budget), points);
        EXPECT_EQ(csvOf(runStudy(resumed)), baseline);
        std::remove(path.c_str());
    }
}

TEST(ParallelStudyTest, FullyJournaledCombinationIsNeverPartitioned)
{
    const StudyResult uninterrupted = runStudy(1);
    const std::string baseline = csvOf(uninterrupted);
    for (const unsigned jobs : {1u, 4u}) {
        SCOPED_TRACE("jobs " + std::to_string(jobs));
        const std::string path = ::testing::TempDir() +
                                 "parallel_skip_" +
                                 std::to_string(::getpid()) + "_" +
                                 std::to_string(jobs) + ".ndjson";
        std::remove(path.c_str());
        const StudyConfig cfg = studyConfig(jobs);
        const JournalIdentity id{1, 0, sweepConfigHash(cfg)};

        // Journal every row of ("band", p = 8) and nothing else.
        {
            SweepJournal journal(path, id);
            for (const StudyRow &row : uninterrupted.rows)
                if (row.workload == "band" && row.partitionSize == 8)
                    journal.record(row);
        }
        StudyConfig resumed = cfg;
        resumed.journal = std::make_shared<SweepJournal>(path, id);
        ASSERT_EQ(resumed.journal->resumedCells(), paperFormats().size());

        SpanCollector &spans = SpanCollector::global();
        spans.clear();
        spans.setEnabled(true);
        const std::string csv = csvOf(runStudy(resumed));
        spans.setEnabled(false);
        std::uint64_t partitions = 0;
        for (const SpanTotal &total : spans.totals())
            if (total.name == "study.partition")
                partitions = total.calls;
        spans.clear();

        // Two workloads x two sizes, one of them fully restored.
        EXPECT_EQ(partitions, 3u);
        EXPECT_EQ(csv, baseline);
        std::remove(path.c_str());
    }
}
