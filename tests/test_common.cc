/**
 * @file
 * Unit tests for src/common: math helpers, RNG, status, logging.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <fstream>
#include <set>
#include <string>
#include <thread>
#include <vector>

#include <fcntl.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/math.hh"
#include "common/rng.hh"
#include "common/status.hh"

namespace copernicus {
namespace {

TEST(MathTest, CeilDivExactAndInexact)
{
    EXPECT_EQ(ceilDiv(0, 4), 0u);
    EXPECT_EQ(ceilDiv(4, 4), 1u);
    EXPECT_EQ(ceilDiv(5, 4), 2u);
    EXPECT_EQ(ceilDiv(8, 4), 2u);
    EXPECT_EQ(ceilDiv(9, 4), 3u);
}

TEST(MathTest, CeilDivLargeValues)
{
    EXPECT_EQ(ceilDiv(1ULL << 40, 3), ((1ULL << 40) + 2) / 3);
}

TEST(MathTest, IsPow2)
{
    EXPECT_FALSE(isPow2(0));
    EXPECT_TRUE(isPow2(1));
    EXPECT_TRUE(isPow2(2));
    EXPECT_FALSE(isPow2(3));
    EXPECT_TRUE(isPow2(1024));
    EXPECT_FALSE(isPow2(1023));
}

TEST(MathTest, Log2Ceil)
{
    EXPECT_EQ(log2Ceil(1), 0u);
    EXPECT_EQ(log2Ceil(2), 1u);
    EXPECT_EQ(log2Ceil(3), 2u);
    EXPECT_EQ(log2Ceil(8), 3u);
    EXPECT_EQ(log2Ceil(9), 4u);
    EXPECT_EQ(log2Ceil(16), 4u);
    EXPECT_EQ(log2Ceil(17), 5u);
    EXPECT_EQ(log2Ceil(32), 5u);
}

TEST(MathTest, RoundUp)
{
    EXPECT_EQ(roundUp(0, 8), 0u);
    EXPECT_EQ(roundUp(1, 8), 8u);
    EXPECT_EQ(roundUp(8, 8), 8u);
    EXPECT_EQ(roundUp(9, 8), 16u);
}

TEST(StatusTest, FatalThrowsFatalError)
{
    EXPECT_THROW(fatal("bad config"), FatalError);
    try {
        fatal("bad config");
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad config");
    }
}

TEST(StatusTest, PanicThrowsPanicError)
{
    EXPECT_THROW(panic("broken invariant"), PanicError);
}

TEST(StatusTest, FatalErrorsAreCopernicusErrors)
{
    EXPECT_THROW(fatal("x"), Error);
    EXPECT_THROW(panic("x"), Error);
}

TEST(StatusTest, CheckFormsBuildMessageOnlyOnFailure)
{
    int built = 0;
    const auto message = [&built](const char *text) {
        ++built;
        return std::string(text);
    };
    COPERNICUS_FATAL_IF(false, message("fatal check passed"));
    COPERNICUS_PANIC_IF(1 + 1 == 3, message("panic check passed"));
    COPERNICUS_DCHECK(true, message("debug check passed"));
    EXPECT_EQ(built, 0);

    try {
        COPERNICUS_FATAL_IF(true, message("bad input ") + std::to_string(7));
        ADD_FAILURE() << "a failing COPERNICUS_FATAL_IF did not throw";
    } catch (const FatalError &e) {
        EXPECT_STREQ(e.what(), "bad input 7");
    }
    try {
        COPERNICUS_PANIC_IF(true, message("broken invariant"));
        ADD_FAILURE() << "a failing COPERNICUS_PANIC_IF did not throw";
    } catch (const PanicError &e) {
        EXPECT_STREQ(e.what(), "broken invariant");
    }
    EXPECT_EQ(built, 2);
}

TEST(RngTest, DeterministicForSameSeed)
{
    Rng a(42), b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a(), b());
}

TEST(RngTest, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a() == b();
    EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0;
    for (int i = 0; i < 10000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 10000.0, 0.5, 0.02);
}

TEST(RngTest, BelowStaysInRange)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.below(10);
        ASSERT_LT(v, 10u);
        seen.insert(v);
    }
    // All ten residues should appear in 2000 draws.
    EXPECT_EQ(seen.size(), 10u);
}

TEST(RngTest, BelowOneIsAlwaysZero)
{
    Rng rng(11);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(rng.below(1), 0u);
}

TEST(RngTest, ChanceExtremes)
{
    Rng rng(13);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.chance(0.0));
        EXPECT_TRUE(rng.chance(1.0));
    }
}

TEST(RngTest, ChanceMatchesProbability)
{
    Rng rng(17);
    int hits = 0;
    for (int i = 0; i < 10000; ++i)
        hits += rng.chance(0.25);
    EXPECT_NEAR(hits / 10000.0, 0.25, 0.02);
}

TEST(RngTest, RangeBounds)
{
    Rng rng(19);
    for (int i = 0; i < 1000; ++i) {
        const double v = rng.range(2.0, 5.0);
        ASSERT_GE(v, 2.0);
        ASSERT_LT(v, 5.0);
    }
}

TEST(RngTest, SplitMix64AdvancesState)
{
    std::uint64_t state = 0;
    const auto a = splitMix64(state);
    const auto b = splitMix64(state);
    EXPECT_NE(a, b);
    EXPECT_NE(state, 0u);
}

TEST(LoggingTest, LevelRoundTrip)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Debug);
    EXPECT_EQ(logLevel(), LogLevel::Debug);
    setLogLevel(LogLevel::Warn);
    EXPECT_EQ(logLevel(), LogLevel::Warn);
    setLogLevel(saved);
}

TEST(LoggingTest, EmittersDoNotThrow)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Warn); // silence output during the test run
    EXPECT_NO_THROW(debug("debug message"));
    EXPECT_NO_THROW(inform("info message"));
    EXPECT_NO_THROW(warn("warn message"));
    setLogLevel(saved);
}

/**
 * Hammer the logger from many threads and prove whole-line emission:
 * the serve daemon logs from acceptor, connection and pool-worker
 * threads at once, and a torn line would corrupt every artifact that
 * greps stderr. Redirects fd 2 to a file for the duration, then checks
 * every captured line is exactly one complete message.
 */
TEST(LoggingTest, ConcurrentEmittersNeverTearLines)
{
    const LogLevel saved = logLevel();
    setLogLevel(LogLevel::Info);

    const std::string path = "/tmp/copernicus_log_hammer_" +
                             std::to_string(::getpid()) + ".txt";
    std::fflush(stderr);
    const int savedFd = ::dup(2);
    ASSERT_GE(savedFd, 0);
    const int fileFd =
        ::open(path.c_str(), O_CREAT | O_TRUNC | O_WRONLY, 0600);
    ASSERT_GE(fileFd, 0);
    ASSERT_GE(::dup2(fileFd, 2), 0);
    ::close(fileFd);

    constexpr int threadCount = 8;
    constexpr int perThread = 200;
    // The payload ends in a sentinel so a line truncated or spliced by
    // a racing writer can't still look complete.
    const std::string payload(24, 'x');
    {
        std::vector<std::thread> threads;
        for (int t = 0; t < threadCount; ++t) {
            threads.emplace_back([t, &payload] {
                for (int i = 0; i < perThread; ++i)
                    inform("hammer t" + std::to_string(t) + " m" +
                           std::to_string(i) + " " + payload + "END");
            });
        }
        for (std::thread &thread : threads)
            thread.join();
    }
    std::fflush(stderr);
    ASSERT_GE(::dup2(savedFd, 2), 0);
    ::close(savedFd);
    setLogLevel(saved);

    std::ifstream in(path);
    ASSERT_TRUE(in.is_open());
    const std::string expectedTail = payload + "END";
    int hammerLines = 0;
    std::string line;
    while (std::getline(in, line)) {
        if (line.find("hammer") == std::string::npos)
            continue; // unrelated message from another component
        ++hammerLines;
        // One complete message per line: the prefix at the start, the
        // sentinel at the very end, and no second message spliced in.
        EXPECT_EQ(line.rfind("info: hammer t", 0), 0u) << line;
        ASSERT_GE(line.size(), expectedTail.size());
        EXPECT_EQ(line.substr(line.size() - expectedTail.size()),
                  expectedTail)
            << line;
        EXPECT_EQ(line.find("info:"), line.rfind("info:")) << line;
    }
    EXPECT_EQ(hammerLines, threadCount * perThread);
    ::unlink(path.c_str());
}

} // namespace
} // namespace copernicus
