/**
 * @file
 * Worst-case buffer-model tests: Section 2's maximum-length formulas,
 * and the safety property that no real encoding ever exceeds its
 * allocated worst case.
 */

#include <gtest/gtest.h>

#include "analysis/schedule_check.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "fpga/buffer_model.hh"
#include "formats/registry.hh"

namespace copernicus {
namespace {

Bytes
elementsOf(FormatKind kind, Index p, const std::string &array)
{
    for (const auto &buffer : bufferRequirements(kind, p))
        if (buffer.array == array)
            return buffer.maxElements;
    ADD_FAILURE() << "no buffer named " << array;
    return 0;
}

TEST(BufferModelTest, Section2MaximumLengths)
{
    const Index n = 16;
    // CSR: offsets length n, values/indices up to n^2.
    EXPECT_EQ(elementsOf(FormatKind::CSR, n, "offsets"), 16u);
    EXPECT_EQ(elementsOf(FormatKind::CSR, n, "values"), 256u);
    EXPECT_EQ(elementsOf(FormatKind::CSR, n, "colInx"), 256u);
    // COO: 3n^2 tuple words.
    EXPECT_EQ(elementsOf(FormatKind::COO, n, "tuples"), 3u * 256u);
    // BCSR (b=4): offsets n/b, block indices (n/b)^2.
    EXPECT_EQ(elementsOf(FormatKind::BCSR, n, "offsets"), 4u);
    EXPECT_EQ(elementsOf(FormatKind::BCSR, n, "colInx"), 16u);
    // DIA: (2n-1) diagonals of n+1 words.
    EXPECT_EQ(elementsOf(FormatKind::DIA, n, "diags"), 31u * 17u);
}

TEST(BufferModelTest, ZeroPartitionIsFatal)
{
    EXPECT_THROW(bufferRequirements(FormatKind::CSR, 0), FatalError);
}

TEST(BufferModelTest, RejectedHyperparametersAreFatal)
{
    // Each zero is one a format's codec refuses; BCSR's and SELL's
    // buffer sizes divide by theirs.
    for (int field = 0; field < 5; ++field) {
        FormatParams params;
        Index *values[] = {&params.bcsrBlock, &params.ellMinWidth,
                           &params.sellSlice, &params.ellCooWidth,
                           &params.sellCsWindow};
        *values[field] = 0;
        for (FormatKind kind : allFormats()) {
            const std::string why = formatParamsViolation(params, kind);
            if (why.empty()) {
                EXPECT_NO_THROW(bufferRequirements(kind, 16, params))
                    << formatName(kind) << " field " << field;
                continue;
            }
            try {
                totalBufferBits(kind, 16, params);
                ADD_FAILURE() << formatName(kind) << " field " << field;
            } catch (const FatalError &err) {
                EXPECT_EQ(err.what(), why);
            }
        }
    }
}

TEST(BufferModelTest, BanksFollowTheUnrolledLanes)
{
    // array_partition: one bank per dot-engine lane for Dense's and
    // BCSR's values, one per slab column for the ELL family's values
    // and column indices, one for every other buffer.
    FormatParams params;
    params.ellMinWidth = 5;
    params.ellCooWidth = 3;
    for (Index p : {4u, 8u, 16u}) {
        for (FormatKind kind : allFormats()) {
            for (const auto &buffer : bufferRequirements(kind, p, params)) {
                Index expected = 1;
                const bool slabArray =
                    buffer.array == "values" || buffer.array == "colInx";
                if (buffer.array == "values" &&
                    (kind == FormatKind::Dense || kind == FormatKind::BCSR))
                    expected = p;
                else if (slabArray &&
                         (kind == FormatKind::ELL ||
                          kind == FormatKind::SELL ||
                          kind == FormatKind::SELLCS))
                    expected = std::min<Index>(5, p);
                else if (slabArray && kind == FormatKind::ELLCOO)
                    expected = std::min<Index>(3, p);
                EXPECT_EQ(buffer.banks, expected)
                    << formatName(kind) << " p=" << p << " "
                    << buffer.array;
            }
        }
    }
}

TEST(BufferModelTest, TotalBitsSumBuffers)
{
    for (FormatKind kind : allFormats()) {
        Bytes sum = 0;
        for (const auto &buffer : bufferRequirements(kind, 16))
            sum += buffer.bits();
        EXPECT_EQ(totalBufferBits(kind, 16), sum) << formatName(kind);
        EXPECT_GT(sum, 0u) << formatName(kind);
    }
}

TEST(BufferModelTest, DenseIsTheSmallestAllocationAtFullDensity)
{
    // Dense allocates exactly n^2 values; every sparse format's worst
    // case is at least that (the paper's point that the worst-case
    // allocations, unlike the transfers, do not shrink).
    const Bytes dense = totalBufferBits(FormatKind::Dense, 16);
    for (FormatKind kind : sparseFormats()) {
        EXPECT_GE(totalBufferBits(kind, 16), dense)
            << formatName(kind);
    }
}

/**
 * The default hyperparameters and three other bundles whose block,
 * slice and window divide every tested partition size; the ELL widths
 * cover 1, clamped to p and in between.
 */
std::vector<FormatParams>
paramSets()
{
    std::vector<FormatParams> sets(4);
    sets[1].bcsrBlock = 2;
    sets[1].ellMinWidth = 3;
    sets[1].sellSlice = 2;
    sets[1].ellCooWidth = 4;
    sets[1].sellCsWindow = 4;
    sets[2].bcsrBlock = 1;
    sets[2].ellMinWidth = 16;
    sets[2].sellSlice = 1;
    sets[2].ellCooWidth = 8;
    sets[2].sellCsWindow = 1;
    sets[3].bcsrBlock = 4;
    sets[3].ellMinWidth = 1;
    sets[3].sellSlice = 4;
    sets[3].ellCooWidth = 1;
    sets[3].sellCsWindow = 4;
    return sets;
}

/**
 * No encoding of any tile may exceed its format's allocation. The
 * overflow pass's byte bound (COP062) is this allocation, so it holds
 * only while this does.
 */
class BufferBoundTest : public testing::TestWithParam<FormatKind>
{
};

TEST_P(BufferBoundTest, EncodingsFitTheWorstCase)
{
    const FormatKind kind = GetParam();
    for (const FormatParams &params : paramSets()) {
        const FormatRegistry registry(params);
        for (Index p : {4u, 8u, 16u, 32u, 64u}) {
            // The one size the codec refuses: SELL-C-sigma's default
            // window 8 at p = 4.
            if (!partitionContractViolation(params, kind, p).empty())
                continue;
            const Bytes budget_bits = totalBufferBits(kind, p, params);
            for (double density : {0.0, 0.05, 0.5, 1.0}) {
                Rng rng(p + static_cast<std::uint64_t>(density * 100));
                TileBuilder tile(p);
                for (Index r = 0; r < p; ++r)
                    for (Index c = 0; c < p; ++c)
                        if (rng.chance(density))
                            tile.set(r, c, static_cast<Value>(
                                               rng.range(0.5, 1.5)));
                const auto encoded =
                    registry.codec(kind).encode(tile.build());
                EXPECT_LE(encoded->totalBytes() * 8, budget_bits)
                    << formatName(kind) << " p=" << p
                    << " d=" << density << " block=" << params.bcsrBlock
                    << " slice=" << params.sellSlice;
            }
        }
    }
}

INSTANTIATE_TEST_SUITE_P(AllFormats, BufferBoundTest,
                         testing::ValuesIn(allFormats()),
                         [](const testing::TestParamInfo<FormatKind> &i) {
                             return std::string(formatName(i.param));
                         });

} // namespace
} // namespace copernicus
