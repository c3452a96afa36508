/**
 * @file
 * Golden parity suite for the sparse-native encode hot path.
 *
 * The partition -> feature -> encode pipeline was rewritten in PR 5 to
 * iterate only the non-zero structure. The hard contract of that
 * rewrite is *bit-identical* StudyResult output: these tests pin
 * `StudyResult::writeCsv` against golden CSVs generated from the seed
 * dense-scan implementation (commit 1e2eed7), across random matrices
 * spanning the paper's density range, band matrices, catalog
 * surrogates, every format, p in {8, 16, 32} and jobs in {1, 4}.
 *
 * Regenerate the goldens (only ever from a known-good tree) with
 *   COPERNICUS_REGEN_GOLDEN=1 ./test_encode_parity
 * which rewrites tests/golden/study_parity.csv in the source tree.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <sstream>
#include <string>

#include "common/rng.hh"
#include "core/study.hh"
#include "workloads/generators.hh"
#include "workloads/suite_catalog.hh"

namespace {

using namespace copernicus;

constexpr Index parityDim = 256;

std::string
goldenPath()
{
    return std::string(COPERNICUS_GOLDEN_DIR) + "/study_parity.csv";
}

Study
makeParityStudy(unsigned jobs)
{
    StudyConfig cfg;
    cfg.partitionSizes = {8, 16, 32};
    cfg.formats = allFormats();
    cfg.jobs = jobs;
    Study study(std::move(cfg));

    const std::vector<double> densities = {0.0001, 0.001, 0.01, 0.1,
                                           0.5};
    for (std::size_t i = 0; i < densities.size(); ++i) {
        std::uint64_t sm = 0xC0FFEE + i;
        Rng rng(splitMix64(sm));
        std::ostringstream name;
        name << "rand_d" << densities[i];
        study.addWorkload(name.str(),
                          randomMatrix(parityDim, densities[i], rng));
    }
    const std::vector<Index> widths = {1, 8};
    for (std::size_t i = 0; i < widths.size(); ++i) {
        std::uint64_t sm = 0xBA5D00 + i;
        Rng rng(splitMix64(sm));
        study.addWorkload("band_w" + std::to_string(widths[i]),
                          bandMatrix(parityDim, widths[i], rng));
    }
    const auto &catalog = suiteCatalog();
    for (std::size_t i = 0; i < 2 && i < catalog.size(); ++i) {
        SuiteMatrixInfo scaled = catalog[i];
        scaled.surrogateDim = parityDim;
        study.addWorkload("cat_" + scaled.id,
                          scaled.generate(0xC0FFEE));
    }
    return study;
}

std::string
runParityCsv(unsigned jobs)
{
    std::ostringstream out;
    makeParityStudy(jobs).run().writeCsv(out);
    return out.str();
}

std::string
loadGolden()
{
    std::ifstream in(goldenPath());
    EXPECT_TRUE(in.good()) << "missing golden file " << goldenPath();
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

bool
regenRequested()
{
    const char *env = std::getenv("COPERNICUS_REGEN_GOLDEN");
    return env != nullptr && env[0] == '1';
}

/** Line-wise diff summary so a mismatch is debuggable, not a blob. */
void
expectCsvEqual(const std::string &got, const std::string &golden)
{
    if (got == golden)
        return;
    std::istringstream a(got), b(golden);
    std::string la, lb;
    std::size_t line = 0;
    while (std::getline(a, la) && std::getline(b, lb)) {
        ++line;
        ASSERT_EQ(la, lb) << "first CSV mismatch at line " << line;
    }
    FAIL() << "CSV row count differs from golden (got "
           << std::count(got.begin(), got.end(), '\n') << " vs "
           << std::count(golden.begin(), golden.end(), '\n')
           << " lines)";
}

TEST(EncodeParity, StudyCsvMatchesSeedGoldenSerial)
{
    const std::string csv = runParityCsv(1);
    if (regenRequested()) {
        std::ofstream out(goldenPath());
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath();
        out << csv;
        GTEST_SKIP() << "regenerated " << goldenPath();
    }
    expectCsvEqual(csv, loadGolden());
}

TEST(EncodeParity, StudyCsvMatchesSeedGoldenParallel)
{
    if (regenRequested())
        GTEST_SKIP() << "regen mode";
    expectCsvEqual(runParityCsv(4), loadGolden());
}

} // namespace
