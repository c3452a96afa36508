#include "common/thread_pool.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdlib>
#include <exception>

namespace copernicus {

namespace {

/** Set while a thread executes a pool task; gates nested fan-out. */
thread_local bool tl_in_pool_task = false;

struct TaskScope
{
    TaskScope() { tl_in_pool_task = true; }
    ~TaskScope() { tl_in_pool_task = false; }
};

std::atomic<unsigned> jobs_override{0};

/** Process-wide counters; pools are short-lived, the totals are not. */
std::atomic<std::uint64_t> ctr_tasks{0};
std::atomic<std::uint64_t> ctr_parallel_fors{0};
std::atomic<std::uint64_t> ctr_serial_loops{0};

/** Lane-span collection (off by default; enabled under --trace). */
std::atomic<bool> lanes_enabled{false};
std::mutex lane_mutex;
std::vector<ThreadPool::LaneSpan> lane_spans;

std::chrono::steady_clock::time_point
laneEpoch()
{
    static const auto epoch = std::chrono::steady_clock::now();
    return epoch;
}

std::uint64_t
laneNowUs()
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - laneEpoch())
            .count());
}

/** State of one fanned-out parallelFor, on the caller's stack. */
struct ForJob
{
    ForJob(std::size_t count, const std::function<void(std::size_t)> &fn,
           std::size_t helperCount)
        : n(count), body(fn), context(currentTraceContext()),
          helpers(helperCount)
    {
    }

    /** Claim and run indices one at a time until none is left. */
    void
    claim()
    {
        // Bodies inherit the caller's trace identity: a span opened
        // inside one parents under the span that issued the
        // parallelFor, whichever lane runs it.
        const TraceContextScope scope(context);
        for (std::size_t i;
             (i = next.fetch_add(1, std::memory_order_relaxed)) < n;) {
            if (failed.load(std::memory_order_relaxed))
                return;
            try {
                body(i);
            } catch (...) {
                const std::lock_guard<std::mutex> lock(mutex);
                if (!error)
                    error = std::current_exception();
                failed.store(true, std::memory_order_relaxed);
            }
        }
    }

    /** A helper lane is done, its lane span included. */
    void
    helperFinished()
    {
        const std::lock_guard<std::mutex> lock(mutex);
        if (--helpers == 0)
            done.notify_all();
    }

    const std::size_t n;
    const std::function<void(std::size_t)> &body;
    const TraceContext context;
    std::atomic<std::size_t> next{0};
    std::atomic<bool> failed{false};
    std::mutex mutex;
    std::condition_variable done;
    std::size_t helpers;      ///< helper lanes not yet finished, under mutex
    std::exception_ptr error; ///< first body exception, under mutex
};

} // namespace

unsigned
hardwareJobs()
{
    const unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : hw;
}

void
setJobsOverride(unsigned jobs)
{
    jobs_override.store(jobs, std::memory_order_relaxed);
}

unsigned
effectiveJobs(unsigned requested)
{
    if (requested > 0)
        return requested;
    const unsigned override_jobs =
        jobs_override.load(std::memory_order_relaxed);
    if (override_jobs > 0)
        return override_jobs;
    static const unsigned env_jobs = [] {
        const char *env = std::getenv("COPERNICUS_JOBS");
        if (env == nullptr)
            return 0U;
        const long parsed = std::strtol(env, nullptr, 10);
        return parsed > 0 ? static_cast<unsigned>(parsed) : 0U;
    }();
    if (env_jobs > 0)
        return env_jobs;
    return hardwareJobs();
}

ThreadPool::ThreadPool(unsigned jobs) : njobs(effectiveJobs(jobs))
{
    laneEpoch(); // pin the lane clock before any worker starts
    if (njobs <= 1)
        return;
    workers.reserve(njobs - 1);
    for (unsigned lane = 1; lane < njobs; ++lane)
        workers.emplace_back([this, lane] { workerLoop(lane); });
}

ThreadPool::~ThreadPool()
{
    // Workers drain queued submit() tasks nobody waits on, then exit.
    {
        const std::lock_guard<std::mutex> lock(mutex);
        stopping = true;
    }
    wakeCv.notify_all();
    for (std::thread &worker : workers)
        worker.join();
}

ThreadPool &
ThreadPool::global()
{
    static ThreadPool pool(0);
    return pool;
}

bool
ThreadPool::inPoolTask()
{
    return tl_in_pool_task;
}

ThreadPool::Counters
ThreadPool::globalCounters()
{
    Counters counters;
    counters.tasksRun = ctr_tasks.load(std::memory_order_relaxed);
    counters.parallelFors =
        ctr_parallel_fors.load(std::memory_order_relaxed);
    counters.serialLoops =
        ctr_serial_loops.load(std::memory_order_relaxed);
    return counters;
}

void
ThreadPool::setLaneRecording(bool enabled)
{
    lanes_enabled.store(enabled, std::memory_order_relaxed);
}

bool
ThreadPool::laneRecording()
{
    return lanes_enabled.load(std::memory_order_relaxed);
}

std::vector<ThreadPool::LaneSpan>
ThreadPool::drainLaneSpans()
{
    const std::lock_guard<std::mutex> lock(lane_mutex);
    std::vector<LaneSpan> drained;
    drained.swap(lane_spans);
    return drained;
}

void
ThreadPool::runTask(unsigned lane, const std::function<void()> &fn)
{
    const bool record = laneRecording();
    const std::uint64_t start = record ? laneNowUs() : 0;
    {
        const TaskScope scope;
        fn();
    }
    if (record) {
        const LaneSpan span{lane, start, laneNowUs()};
        const std::lock_guard<std::mutex> lock(lane_mutex);
        lane_spans.push_back(span);
    }
    ctr_tasks.fetch_add(1, std::memory_order_relaxed);
}

void
ThreadPool::push(Task task)
{
    {
        const std::lock_guard<std::mutex> lock(mutex);
        queue.push_back(std::move(task));
    }
    wakeCv.notify_one();
}

void
ThreadPool::workerLoop(unsigned lane)
{
    for (;;) {
        Task task;
        {
            std::unique_lock<std::mutex> lock(mutex);
            wakeCv.wait(lock, [this] { return stopping || !queue.empty(); });
            if (queue.empty())
                return; // stopping, and the queue is drained
            task = std::move(queue.front());
            queue.pop_front();
        }
        task(lane);
    }
}

void
ThreadPool::parallelFor(std::size_t n,
                        const std::function<void(std::size_t)> &body)
{
    if (n == 0)
        return;
    if (njobs <= 1 || n == 1 || tl_in_pool_task) {
        ctr_serial_loops.fetch_add(1, std::memory_order_relaxed);
        for (std::size_t i = 0; i < n; ++i)
            body(i);
        return;
    }
    ctr_parallel_fors.fetch_add(1, std::memory_order_relaxed);

    const std::size_t helpers = std::min<std::size_t>(njobs, n) - 1;
    ForJob job(n, body, helpers);
    for (std::size_t h = 0; h < helpers; ++h) {
        push([&job](unsigned lane) {
            runTask(lane, [&job] { job.claim(); });
            job.helperFinished();
        });
    }
    runTask(0, [&job] { job.claim(); });
    {
        std::unique_lock<std::mutex> lock(job.mutex);
        job.done.wait(lock, [&job] { return job.helpers == 0; });
    }
    if (job.error)
        std::rethrow_exception(job.error);
}

ThreadPoolStats::ThreadPoolStats() : grp("thread_pool")
{
    const ThreadPool::Counters counters = ThreadPool::globalCounters();
    auto add = [this](const std::string &name, const char *desc,
                      double value) {
        auto stat = std::make_unique<ScalarStat>(grp, name, desc);
        *stat = value;
        owned.push_back(std::move(stat));
    };
    add("tasks_run", "pool tasks executed on any lane",
        static_cast<double>(counters.tasksRun));
    add("parallel_fors", "parallelFor calls that fanned out",
        static_cast<double>(counters.parallelFors));
    add("serial_loops",
        "parallelFor calls that ran serially (jobs<=1 or nested)",
        static_cast<double>(counters.serialLoops));
}

} // namespace copernicus
