/**
 * @file
 * Unit tests for the MatrixMarket reader/writer.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/status.hh"
#include "matrix/mm_io.hh"

namespace copernicus {
namespace {

TEST(MmIoTest, ReadGeneralReal)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "% a comment\n"
        "3 4 2\n"
        "1 1 2.5\n"
        "3 4 -1\n");
    const auto m = readMatrixMarket(in);
    EXPECT_EQ(m.rows(), 3u);
    EXPECT_EQ(m.cols(), 4u);
    EXPECT_EQ(m.nnz(), 2u);
    EXPECT_FLOAT_EQ(m.at(0, 0), 2.5f);
    EXPECT_FLOAT_EQ(m.at(2, 3), -1.0f);
}

TEST(MmIoTest, ReadPatternAssignsOnes)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern general\n"
        "2 2 2\n"
        "1 2\n"
        "2 1\n");
    const auto m = readMatrixMarket(in);
    EXPECT_FLOAT_EQ(m.at(0, 1), 1.0f);
    EXPECT_FLOAT_EQ(m.at(1, 0), 1.0f);
}

TEST(MmIoTest, ReadSymmetricExpands)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real symmetric\n"
        "3 3 2\n"
        "2 1 4\n"
        "3 3 5\n");
    const auto m = readMatrixMarket(in);
    EXPECT_EQ(m.nnz(), 3u); // off-diagonal mirrored, diagonal not
    EXPECT_FLOAT_EQ(m.at(1, 0), 4.0f);
    EXPECT_FLOAT_EQ(m.at(0, 1), 4.0f);
    EXPECT_FLOAT_EQ(m.at(2, 2), 5.0f);
}

TEST(MmIoTest, ReadSkewSymmetricNegatesMirror)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "2 2 1\n"
        "2 1 3\n");
    const auto m = readMatrixMarket(in);
    EXPECT_FLOAT_EQ(m.at(1, 0), 3.0f);
    EXPECT_FLOAT_EQ(m.at(0, 1), -3.0f);
}

TEST(MmIoTest, ReadIntegerField)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate integer general\n"
        "2 2 1\n"
        "1 1 7\n");
    const auto m = readMatrixMarket(in);
    EXPECT_FLOAT_EQ(m.at(0, 0), 7.0f);
}

TEST(MmIoTest, RejectsMissingBanner)
{
    std::istringstream in("3 3 0\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MmIoTest, RejectsArrayLayout)
{
    std::istringstream in(
        "%%MatrixMarket matrix array real general\n2 2\n1\n2\n3\n4\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MmIoTest, RejectsComplexField)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate complex general\n"
        "1 1 1\n1 1 1 0\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MmIoTest, RejectsTruncatedEntries)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 2\n"
        "1 1 1.0\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MmIoTest, RejectsOutOfRangeIndices)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "3 1 1.0\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MmIoTest, RejectsZeroBasedIndices)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "2 2 1\n"
        "0 1 1.0\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MmIoTest, WriteThenReadRoundTrips)
{
    TripletMatrix m(4, 5);
    m.add(0, 0, 1.5f);
    m.add(3, 4, -2.25f);
    m.add(1, 2, 0.125f);
    m.finalize();

    std::ostringstream out;
    writeMatrixMarket(out, m);
    std::istringstream in(out.str());
    const auto back = readMatrixMarket(in);
    EXPECT_TRUE(m == back);
}

TEST(MmIoTest, CaseInsensitiveHeaderTokens)
{
    std::istringstream in(
        "%%MatrixMarket MATRIX Coordinate REAL General\n"
        "1 1 1\n"
        "1 1 9\n");
    const auto m = readMatrixMarket(in);
    EXPECT_FLOAT_EQ(m.at(0, 0), 9.0f);
}

TEST(MmIoTest, FileRoundTrip)
{
    TripletMatrix m(3, 3);
    m.add(1, 1, 4.0f);
    m.finalize();
    const std::string path = testing::TempDir() + "/copernicus_mm.mtx";
    writeMatrixMarketFile(path, m);
    const auto back = readMatrixMarketFile(path);
    EXPECT_TRUE(m == back);
}

TEST(MmIoTest, MissingFileIsFatal)
{
    EXPECT_THROW(readMatrixMarketFile("/nonexistent/file.mtx"),
                 FatalError);
}

TEST(MmIoTest, PatternSymmetricExpands)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern symmetric\n"
        "3 3 2\n"
        "2 1\n"
        "3 3\n");
    const auto m = readMatrixMarket(in);
    EXPECT_EQ(m.nnz(), 3u);
    EXPECT_FLOAT_EQ(m.at(1, 0), 1.0f);
    EXPECT_FLOAT_EQ(m.at(0, 1), 1.0f);
    EXPECT_FLOAT_EQ(m.at(2, 2), 1.0f);
}

TEST(MmIoTest, RejectsPatternSkewSymmetric)
{
    // A skew mirror carries a negated value; a pattern file has no
    // value to negate, so the combination must be refused up front.
    std::istringstream in(
        "%%MatrixMarket matrix coordinate pattern skew-symmetric\n"
        "2 2 1\n"
        "2 1\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MmIoTest, RejectsSkewDiagonalEntry)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real skew-symmetric\n"
        "2 2 1\n"
        "2 2 3\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MmIoTest, ToleratesCrlfBlankAndCommentLines)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\r\n"
        "\r\n"
        "% a comment between banner and size\r\n"
        "   \t \r\n"
        "2 2 2\r\n"
        "% a comment between entries\r\n"
        "1 1 2.5\r\n"
        "\r\n"
        "2 2 -1\r\n");
    const auto m = readMatrixMarket(in);
    EXPECT_EQ(m.nnz(), 2u);
    EXPECT_FLOAT_EQ(m.at(0, 0), 2.5f);
    EXPECT_FLOAT_EQ(m.at(1, 1), -1.0f);
}

TEST(MmIoTest, RejectsHeaderBeyondIndexSpace)
{
    // 5e9 rows parses as a u64 but cannot live in a 32-bit Index;
    // silently truncating would mis-address every entry.
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "5000000000 3 1\n"
        "1 1 1.0\n");
    try {
        readMatrixMarket(in);
        FAIL() << "oversized header accepted";
    } catch (const FatalError &err) {
        EXPECT_NE(std::string(err.what())
                      .find("exceeds the 32-bit index space"),
                  std::string::npos)
            << err.what();
    }
}

TEST(MmIoTest, RejectsU64OverflowingDimension)
{
    // Larger than 2^64: from_chars reports overflow, which must not
    // wrap around into a plausible small dimension.
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "99999999999999999999999999 3 1\n"
        "1 1 1.0\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MmIoTest, RejectsOverflowingEntryCount)
{
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "3 3 99999999999999999999999999\n"
        "1 1 1.0\n");
    EXPECT_THROW(readMatrixMarket(in), FatalError);
}

TEST(MmIoTest, AcceptsLargeButRepresentableHeader)
{
    // 100M-row header (SuiteSparse scale): within the 32-bit index
    // space, so the 1-based entries near the far corner must land.
    std::istringstream in(
        "%%MatrixMarket matrix coordinate real general\n"
        "100000000 100000000 2\n"
        "1 1 1.5\n"
        "100000000 100000000 -2.5\n");
    const auto m = readMatrixMarket(in);
    EXPECT_EQ(m.rows(), 100000000u);
    EXPECT_EQ(m.cols(), 100000000u);
    EXPECT_FLOAT_EQ(m.at(0, 0), 1.5f);
    EXPECT_FLOAT_EQ(m.at(99999999, 99999999), -2.5f);
}

TEST(MmIoTest, MappedPathMatchesStreamPath)
{
    // Same messy input through the istream parser and the mmap-backed
    // file parser: one shared grammar, identical matrices.
    const std::string text =
        "%%MatrixMarket matrix coordinate real symmetric\r\n"
        "% mixed line endings and noise\r\n"
        "\r\n"
        "3 3 3\n"
        "2 1 4\r\n"
        "\n"
        "3 3 5\n"
        "3 1 -1\r\n";
    std::istringstream in(text);
    const auto fromStream = readMatrixMarket(in);

    const std::string path =
        testing::TempDir() + "/copernicus_mm_parity.mtx";
    {
        std::ofstream out(path, std::ios::binary);
        out << text;
    }
    const auto fromMap = readMatrixMarketFile(path);
    EXPECT_TRUE(fromStream == fromMap);
    std::remove(path.c_str());
}

/** A real general 2 x 2 file whose one entry is (1, 2) = @p token. */
std::string
oneEntryFile(const std::string &token)
{
    return "%%MatrixMarket matrix coordinate real general\n"
           "2 2 1\n"
           "1 2 " +
           token + "\n";
}

/** Parse @p text through the stream path, or the mapped-file path. */
TripletMatrix
parseVia(bool mapped, const std::string &text)
{
    if (!mapped) {
        std::istringstream in(text);
        return readMatrixMarket(in);
    }
    const std::string path = testing::TempDir() + "/copernicus_mm_token.mtx";
    {
        std::ofstream out(path, std::ios::binary);
        out << text;
    }
    struct Remove
    {
        const std::string &path;
        ~Remove() { std::remove(path.c_str()); }
    } remove{path};
    return readMatrixMarketFile(path);
}

// What a value token may be: the C library's strtod grammar, whole
// token consumed. Each row pins the value the entry gets after the
// cast to Value, through both parse paths.
TEST(MmIoTest, ValueTokensParseAsStrtodDoes)
{
    constexpr float inf = std::numeric_limits<float>::infinity();
    const std::string seventyDigits =
        "1234567890123456789012345678901234567890"
        "123456789012345678901234567890";
    ASSERT_EQ(seventyDigits.size(), 70u);
    const std::vector<std::pair<std::string, float>> accepted = {
        {"3", 3.0f},
        {"+2.5", 2.5f},
        {".5", 0.5f},
        {"5.", 5.0f},
        {"1E+2", 100.0f},
        {"1e-3", static_cast<float>(1e-3)},
        {"0x1p3", 8.0f},
        {"inf", inf},
        {"-INF", -inf},
        {"1e999", inf},
        {seventyDigits, inf},
    };
    for (const bool mapped : {false, true}) {
        for (const auto &[token, value] : accepted) {
            SCOPED_TRACE((mapped ? "mapped: " : "stream: ") + token);
            const TripletMatrix m = parseVia(mapped, oneEntryFile(token));
            ASSERT_EQ(m.nnz(), 1u);
            EXPECT_EQ(m.at(0, 1), value);
        }
        SCOPED_TRACE(mapped ? "mapped: nan" : "stream: nan");
        const TripletMatrix m = parseVia(mapped, oneEntryFile("nan"));
        ASSERT_EQ(m.nnz(), 1u);
        EXPECT_TRUE(std::isnan(m.at(0, 1)));
    }
}

TEST(MmIoTest, ValueTokensThatAreZeroDropTheEntry)
{
    // -0 is zero; 1e-310 is a subnormal double that the cast to a
    // 32-bit Value flushes to zero.
    for (const bool mapped : {false, true}) {
        for (const std::string token : {"-0", "1e-310"}) {
            SCOPED_TRACE((mapped ? "mapped: " : "stream: ") + token);
            EXPECT_EQ(parseVia(mapped, oneEntryFile(token)).nnz(), 0u);
        }
    }
}

TEST(MmIoTest, MalformedValueTokensAreRejected)
{
    for (const bool mapped : {false, true}) {
        for (const std::string token :
             {"1.5x", "--1", "1,5", "+", ".", "1e", "0x"}) {
            SCOPED_TRACE((mapped ? "mapped: " : "stream: ") + token);
            try {
                parseVia(mapped, oneEntryFile(token));
                ADD_FAILURE() << "accepted '" << token << "'";
            } catch (const FatalError &e) {
                EXPECT_EQ(std::string(e.what()),
                          "MatrixMarket: malformed entry '1 2 " + token +
                              "'");
            }
        }
    }
}

} // namespace
} // namespace copernicus
