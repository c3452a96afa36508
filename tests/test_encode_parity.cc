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
 * The same study runs a second time with second-stage compression on
 * (study_parity_compress.csv), so the compressed stream sizes and
 * everything priced from them (bytes, memory cycles, bandwidth
 * utilization) are pinned row by row as well.
 *
 * Regenerate the goldens (only ever from a known-good tree) with
 *   COPERNICUS_REGEN_GOLDEN=1 ./test_encode_parity
 * which rewrites both tests/golden/study_parity.csv and
 * tests/golden/study_parity_compress.csv in the source tree. Before it
 * overwrites a golden it prints how many rows changed in each column
 * and the (format, p) pairs of those rows, so a regeneration shows
 * whether it moved only the cells it meant to.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <iostream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/rng.hh"
#include "core/study.hh"
#include "workloads/generators.hh"
#include "workloads/suite_catalog.hh"

namespace {

using namespace copernicus;

constexpr Index parityDim = 256;

constexpr const char *plainGolden = "study_parity.csv";
constexpr const char *compressGolden = "study_parity_compress.csv";

std::string
goldenPath(const char *file)
{
    return std::string(COPERNICUS_GOLDEN_DIR) + "/" + file;
}

Study
makeParityStudy(unsigned jobs, bool secondStage)
{
    StudyConfig cfg;
    cfg.partitionSizes = {8, 16, 32};
    cfg.formats = allFormats();
    cfg.jobs = jobs;
    cfg.hls.secondStageCompression = secondStage;
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
runParityCsv(unsigned jobs, bool secondStage)
{
    std::ostringstream out;
    makeParityStudy(jobs, secondStage).run().writeCsv(out);
    return out.str();
}

std::string
loadGolden(const char *file)
{
    std::ifstream in(goldenPath(file));
    EXPECT_TRUE(in.good()) << "missing golden file " << goldenPath(file);
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

/** The comma-separated cells of each line of @p csv. */
std::vector<std::vector<std::string>>
csvCells(const std::string &csv)
{
    std::vector<std::vector<std::string>> rows;
    std::istringstream in(csv);
    std::string line, cell;
    while (std::getline(in, line)) {
        rows.emplace_back();
        std::istringstream cells(line);
        while (std::getline(cells, cell, ','))
            rows.back().push_back(cell);
    }
    return rows;
}

/**
 * Print what overwriting @p golden with @p csv changes: per column, the
 * number of rows whose cell differs, and the (format, p) pairs of those
 * rows.
 */
void
reportGoldenChanges(const char *file, const std::string &golden,
                    const std::string &csv)
{
    const auto before = csvCells(golden);
    const auto after = csvCells(csv);
    std::cout << "regen " << file << ": ";
    if (before.size() != after.size() || before.empty() ||
        before[0] != after[0]) {
        std::cout << "header or row count changed (" << before.size()
                  << " -> " << after.size() << " lines)\n";
        return;
    }
    const std::vector<std::string> &header = after[0];
    std::vector<std::size_t> changed(header.size(), 0);
    std::set<std::string> pairs;
    std::size_t rows = 0;
    for (std::size_t r = 1; r < after.size(); ++r) {
        bool moved = before[r].size() != after[r].size();
        for (std::size_t c = 0;
             c < header.size() && c < before[r].size() &&
             c < after[r].size();
             ++c) {
            if (before[r][c] != after[r][c]) {
                ++changed[c];
                moved = true;
            }
        }
        if (moved) {
            ++rows;
            pairs.insert(after[r][1] + " p=" + after[r][2]);
        }
    }
    std::cout << rows << " of " << after.size() - 1
              << " rows changed\n";
    for (std::size_t c = 0; c < header.size(); ++c)
        if (changed[c] > 0)
            std::cout << "  " << header[c] << ": " << changed[c]
                      << " rows\n";
    if (!pairs.empty()) {
        std::cout << "  (format, p):";
        for (const std::string &pair : pairs)
            std::cout << " [" << pair << "]";
        std::cout << "\n";
    }
}

/** Compare the serial run with @p file, or rewrite it in regen mode. */
void
checkSerial(bool secondStage, const char *file)
{
    const std::string csv = runParityCsv(1, secondStage);
    if (regenRequested()) {
        reportGoldenChanges(file, loadGolden(file), csv);
        std::ofstream out(goldenPath(file));
        ASSERT_TRUE(out.good()) << "cannot write " << goldenPath(file);
        out << csv;
        GTEST_SKIP() << "regenerated " << goldenPath(file);
    }
    expectCsvEqual(csv, loadGolden(file));
}

TEST(EncodeParity, StudyCsvMatchesSeedGoldenSerial)
{
    checkSerial(false, plainGolden);
}

TEST(EncodeParity, StudyCsvMatchesSeedGoldenParallel)
{
    if (regenRequested())
        GTEST_SKIP() << "regen mode";
    expectCsvEqual(runParityCsv(4, false), loadGolden(plainGolden));
}

TEST(EncodeParity, StudyCsvWithSecondStageMatchesGoldenSerial)
{
    checkSerial(true, compressGolden);
}

TEST(EncodeParity, StudyCsvWithSecondStageMatchesGoldenParallel)
{
    if (regenRequested())
        GTEST_SKIP() << "regen mode";
    expectCsvEqual(runParityCsv(4, true), loadGolden(compressGolden));
}

} // namespace
