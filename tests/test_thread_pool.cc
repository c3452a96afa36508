/**
 * @file
 * ThreadPool contract tests: indexed-slot determinism, the serial
 * fallbacks (jobs = 1, nested calls), exception propagation, submit()
 * futures, concurrent callers on one pool, the jobs-resolution chain
 * and the observability counters.
 */

#include <atomic>
#include <future>
#include <numeric>
#include <stdexcept>
#include <thread>
#include <vector>

#include <gtest/gtest.h>

#include "common/thread_pool.hh"

using namespace copernicus;

TEST(ThreadPool, ParallelForRunsEveryIndexExactlyOnce)
{
    ThreadPool pool(4);
    EXPECT_EQ(pool.jobs(), 4u);

    const std::size_t n = 1000;
    std::vector<std::atomic<int>> visits(n);
    std::vector<std::size_t> out(n, 0);
    pool.parallelFor(n, [&](std::size_t i) {
        ++visits[i];
        out[i] = i * i;
    });
    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(visits[i].load(), 1) << "index " << i;
        EXPECT_EQ(out[i], i * i);
    }
}

TEST(ThreadPool, JobsOneNeverSpawnsAndRunsSerially)
{
    const auto before = ThreadPool::globalCounters();
    ThreadPool pool(1);
    EXPECT_EQ(pool.jobs(), 1u);

    std::vector<std::size_t> out(64, 0);
    pool.parallelFor(out.size(), [&](std::size_t i) { out[i] = i + 1; });
    for (std::size_t i = 0; i < out.size(); ++i)
        EXPECT_EQ(out[i], i + 1);

    const auto after = ThreadPool::globalCounters();
    EXPECT_GT(after.serialLoops, before.serialLoops);
    EXPECT_EQ(after.parallelFors, before.parallelFors);
}

TEST(ThreadPool, ParallelForPropagatesTheFirstException)
{
    ThreadPool pool(4);
    EXPECT_THROW(pool.parallelFor(100,
                                  [](std::size_t i) {
                                      if (i == 37)
                                          throw std::runtime_error(
                                              "bad index");
                                  }),
                 std::runtime_error);

    // The pool survives a failed loop and runs the next one fully.
    std::vector<int> out(100, 0);
    pool.parallelFor(out.size(), [&](std::size_t i) { out[i] = 1; });
    EXPECT_EQ(std::accumulate(out.begin(), out.end(), 0), 100);
}

TEST(ThreadPool, NestedParallelForFallsBackToSerialInline)
{
    ThreadPool pool(4);
    const std::size_t outer = 8;
    const std::size_t inner = 16;
    std::vector<int> out(outer * inner, 0);
    std::atomic<int> sawPoolTask{0};
    pool.parallelFor(outer, [&](std::size_t i) {
        sawPoolTask += ThreadPool::inPoolTask() ? 1 : 0;
        // Same pool, from inside a task: must run inline, not deadlock.
        pool.parallelFor(inner, [&](std::size_t j) {
            out[i * inner + j] = static_cast<int>(i * inner + j);
        });
    });
    for (std::size_t k = 0; k < out.size(); ++k)
        EXPECT_EQ(out[k], static_cast<int>(k));
    EXPECT_EQ(sawPoolTask.load(), static_cast<int>(outer));
}

TEST(ThreadPool, SubmitDeliversValuesAndExceptions)
{
    ThreadPool pool(2);
    auto value = pool.submit([] { return 42; });
    EXPECT_EQ(value.get(), 42);

    auto failing = pool.submit(
        []() -> int { throw std::runtime_error("boom"); });
    EXPECT_THROW(failing.get(), std::runtime_error);

    // jobs = 1: submit runs inline but the future contract is the same.
    ThreadPool serial(1);
    auto inline_value = serial.submit([] { return 7; });
    EXPECT_EQ(inline_value.get(), 7);
}

TEST(ThreadPool, ConcurrentCallersShareOnePool)
{
    // What ThreadPool::global() sees when planFormats and the bench
    // generators share it: two external parallelFor callers and a
    // submitter on one queue at once.
    ThreadPool pool(4);
    const std::size_t n = 10000;
    std::vector<std::atomic<int>> first(n);
    std::vector<std::atomic<int>> second(n);
    const auto sweep = [&pool, n](std::vector<std::atomic<int>> &visits) {
        pool.parallelFor(n, [&visits](std::size_t i) { ++visits[i]; });
    };
    std::vector<std::future<int>> futures;
    std::thread callerA([&] { sweep(first); });
    std::thread callerB([&] { sweep(second); });
    std::thread submitter([&] {
        for (int k = 0; k < 100; ++k)
            futures.push_back(pool.submit([k] { return k; }));
    });
    callerA.join();
    callerB.join();
    submitter.join();

    for (std::size_t i = 0; i < n; ++i) {
        EXPECT_EQ(first[i].load(), 1) << "index " << i;
        EXPECT_EQ(second[i].load(), 1) << "index " << i;
    }
    ASSERT_EQ(futures.size(), 100u);
    for (int k = 0; k < 100; ++k)
        EXPECT_EQ(futures[k].get(), k);
}

TEST(ThreadPool, EffectiveJobsResolutionChain)
{
    EXPECT_EQ(effectiveJobs(5), 5u);

    setJobsOverride(3);
    EXPECT_EQ(effectiveJobs(0), 3u);
    EXPECT_EQ(effectiveJobs(2), 2u); // explicit request beats override

    setJobsOverride(0);
    EXPECT_GE(effectiveJobs(0), 1u); // env or hardware, never 0
    EXPECT_GE(hardwareJobs(), 1u);
}

TEST(ThreadPool, CountersAndLaneSpansRecordFanOut)
{
    const auto before = ThreadPool::globalCounters();
    ThreadPool::setLaneRecording(true);
    ThreadPool pool(4);
    std::vector<int> out(256, 0);
    pool.parallelFor(out.size(), [&](std::size_t i) { out[i] = 1; });
    ThreadPool::setLaneRecording(false);

    const auto after = ThreadPool::globalCounters();
    EXPECT_GT(after.tasksRun, before.tasksRun);
    EXPECT_GT(after.parallelFors, before.parallelFors);

    const auto spans = ThreadPool::drainLaneSpans();
    EXPECT_FALSE(spans.empty());
    for (const auto &span : spans) {
        EXPECT_LT(span.worker, 4u);
        EXPECT_LE(span.startUs, span.endUs);
    }
    EXPECT_TRUE(ThreadPool::drainLaneSpans().empty()); // drain clears
}
