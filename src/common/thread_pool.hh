/**
 * @file
 * Thread pool for the host-side sweep hot paths.
 *
 * The characterization is a large Cartesian sweep (workloads x formats
 * x partition sizes) of *pure* evaluations: every design point reads
 * shared immutable inputs and writes one indexed output slot. That
 * shape makes parallelism deterministic by construction — results are
 * ordered by index, never by completion — and it is the only shape
 * this pool is designed for.
 *
 * Topology: `jobs` execution lanes total. A ThreadPool(jobs) spawns
 * `jobs - 1` worker threads that take tasks from one mutex-guarded
 * FIFO; the thread that calls parallelFor() is the jobs-th lane. A
 * parallelFor() over n indices queues min(jobs, n) - 1 helper tasks,
 * and the caller plus each helper claims indices one at a time from a
 * shared atomic counter until none is left, so a slow index never
 * strands a batch of others behind it. The call returns once its
 * helpers have finished, so their lane spans are recorded by then.
 * With jobs <= 1 no threads are ever spawned and every entry point
 * degrades to a plain serial loop — the graceful single-thread
 * fallback.
 *
 * Nesting: a parallelFor() issued from inside a pool task (any pool)
 * runs serially inline on the calling lane. This keeps nested sweeps
 * (Study::run -> planFormats) deadlock-free without a scheduler.
 *
 * Exceptions: the first exception thrown by a parallelFor body is
 * captured and rethrown on the calling thread once every lane has
 * finished; indices not yet started by then are skipped. submit()
 * propagates through the returned future.
 *
 * The `jobs` knob resolves through effectiveJobs(): explicit value >
 * process-wide override (--jobs) > COPERNICUS_JOBS > hardware
 * concurrency.
 */

#ifndef COPERNICUS_COMMON_THREAD_POOL_HH
#define COPERNICUS_COMMON_THREAD_POOL_HH

#include <condition_variable>
#include <cstdint>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <mutex>
#include <thread>
#include <type_traits>
#include <vector>

#include "common/stat_group.hh"
#include "common/trace_context.hh"

namespace copernicus {

/** Hardware concurrency, never less than 1. */
unsigned hardwareJobs();

/**
 * Process-wide jobs override (the --jobs flag); 0 clears it. Takes
 * effect on the next effectiveJobs() resolution — pools already
 * constructed keep their size.
 */
void setJobsOverride(unsigned jobs);

/**
 * Resolve a jobs request: @p requested if positive, else the override,
 * else COPERNICUS_JOBS from the environment, else hardwareJobs().
 */
unsigned effectiveJobs(unsigned requested = 0);

/** Pool of `jobs` execution lanes sharing one task queue. */
class ThreadPool
{
  public:
    /** @param jobs Lane count request, resolved via effectiveJobs(). */
    explicit ThreadPool(unsigned jobs = 0);

    /** Joins all workers; queued submit() tasks are drained first. */
    ~ThreadPool();

    ThreadPool(const ThreadPool &) = delete;
    ThreadPool &operator=(const ThreadPool &) = delete;

    /** Execution lanes (worker threads + the calling thread). */
    unsigned jobs() const { return njobs; }

    /**
     * Run body(0) .. body(n-1), each exactly once. Up to min(jobs, n)
     * lanes, the caller among them, claim indices one at a time; the
     * call returns once every lane has finished. Determinism contract:
     * the body must write only to state indexed by its argument.
     * Serial inline when jobs <= 1, n <= 1, or when called from inside
     * any pool task.
     */
    void parallelFor(std::size_t n,
                     const std::function<void(std::size_t)> &body);

    /**
     * Schedule one task; the future carries its result or exception.
     * Runs inline immediately when jobs <= 1 or when called from
     * inside a pool task. The submitting thread's TraceContext is
     * captured here and restored around the task body, so spans opened
     * inside the task parent under the submitter's span even though
     * the task runs on another lane.
     */
    template <typename F>
    auto
    submit(F &&fn) -> std::future<std::invoke_result_t<std::decay_t<F>>>
    {
        using R = std::invoke_result_t<std::decay_t<F>>;
        auto task = std::make_shared<std::packaged_task<R()>>(
            std::forward<F>(fn));
        auto future = task->get_future();
        if (njobs <= 1 || inPoolTask()) {
            (*task)();
            return future;
        }
        push([task, context = currentTraceContext()](unsigned lane) {
            runTask(lane, [&] {
                const TraceContextScope scope(context);
                (*task)();
            });
        });
        return future;
    }

    /** Process-wide pool sized by effectiveJobs(0) at first use. */
    static ThreadPool &global();

    /** True while the calling thread is executing a pool task. */
    static bool inPoolTask();

    /**
     * Process-wide pool counters, aggregated over every pool instance
     * (Study::run builds a short-lived pool per sweep).
     */
    struct Counters
    {
        std::uint64_t tasksRun = 0;      ///< tasks executed on any lane
        std::uint64_t parallelFors = 0;  ///< parallelFor calls that fanned out
        std::uint64_t serialLoops = 0;   ///< parallelFor calls run serially
    };
    static Counters globalCounters();

    /**
     * One executed task on one lane, wall-clock microseconds since the
     * first pool was constructed. Collected process-wide (across pool
     * instances) when lane recording is on, so the Chrome trace can
     * show per-worker activity lanes.
     */
    struct LaneSpan
    {
        unsigned worker = 0;
        std::uint64_t startUs = 0;
        std::uint64_t endUs = 0;
    };

    /** Enable/disable lane-span collection (default off). */
    static void setLaneRecording(bool enabled);
    static bool laneRecording();

    /** Take (and clear) every collected lane span. */
    static std::vector<LaneSpan> drainLaneSpans();

  private:
    /** A queued task; it is handed the lane that runs it. */
    using Task = std::function<void(unsigned lane)>;

    /**
     * Run @p fn as a pool task on @p lane: nested fan-out inside it
     * runs inline, and it is counted and, when recording, kept as a
     * lane span.
     */
    static void runTask(unsigned lane, const std::function<void()> &fn);

    void workerLoop(unsigned lane);
    void push(Task task);

    unsigned njobs = 1;
    std::vector<std::thread> workers; ///< lanes 1..njobs-1; 0 = caller
    /** CV-paired: stays std::mutex (documented exclusion, mutex.hh). */
    std::mutex mutex;
    std::condition_variable wakeCv;
    std::deque<Task> queue; ///< under mutex
    bool stopping = false;  ///< under mutex
};

/**
 * ThreadPool::globalCounters() exported as a StatGroup named
 * "thread_pool", for --stats-json alongside the profile group.
 */
class ThreadPoolStats
{
  public:
    ThreadPoolStats();

    const StatGroup &group() const { return grp; }

  private:
    StatGroup grp;
    std::vector<std::unique_ptr<ScalarStat>> owned;
};

} // namespace copernicus

#endif // COPERNICUS_COMMON_THREAD_POOL_HH
