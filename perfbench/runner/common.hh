/**
 * @file
 * Shared pieces of the benchmark runner: run options, the metric
 * report, order statistics, a content digest, and the span ledger the
 * traced runs record into.
 *
 * The runner measures the program from outside: it only calls the
 * public entry points of the layers (matrix, store, formats, compress,
 * hls, pipeline, core, common, serve) and times those calls. Nothing
 * here is linked into the program itself.
 */

#ifndef PERFBENCH_RUNNER_COMMON_HH
#define PERFBENCH_RUNNER_COMMON_HH

#include <chrono>
#include <cstdint>
#include <cstring>
#include <map>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

using Clock = std::chrono::steady_clock;

/** Seconds elapsed since @p start. */
inline double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** What one invocation runs. */
struct Options
{
    std::string workload;
    std::uint64_t seed = 1;
    /** Length of the timed body, seconds. */
    double seconds = 10;
    /** False: end-to-end metrics; true: per-layer metrics. */
    bool trace = false;
    /** Pinned output digest for this (workload, seed); "" = none. */
    std::string expectDigest;
    /** Scratch directory for sockets, .mtx/.cbm files and traces. */
    std::string runDir = ".bench_run";
};

/** Threads and client connections: the cores this process may use. */
unsigned hostLanes();

/**
 * Pin the calling thread to the (@p k mod hostLanes())-th of those
 * cores. The cores of a shared host run at unequal, shifting speeds, so
 * a single-threaded workload that stays where the scheduler put it
 * measures that placement as much as the program; rotating its
 * operations over every core averages the placement out.
 */
void pinToLane(std::size_t k);

/** Linear-interpolated quantile @p q in [0, 1]; 0 for no samples. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/** Peak resident set of this process, MiB. */
double peakRssMb();

/** FNV-1a accumulator for output digests. */
class Digest
{
  public:
    void
    bytes(const void *data, std::size_t size)
    {
        const auto *p = static_cast<const unsigned char *>(data);
        for (std::size_t i = 0; i < size; ++i) {
            h ^= p[i];
            h *= 0x100000001b3ULL;
        }
    }

    template <typename T>
    void
    value(const T &v)
    {
        unsigned char raw[sizeof(T)];
        std::memcpy(raw, &v, sizeof(T));
        bytes(raw, sizeof(T));
    }

    void
    text(const std::string &s)
    {
        value(s.size());
        bytes(s.data(), s.size());
    }

    std::uint64_t get() const { return h; }
    std::string hex() const;

  private:
    std::uint64_t h = 0xcbf29ce484222325ULL;
};

/**
 * Everything one run reports: operation counts for the error rate,
 * named metrics with units (in print order), and free-form summary
 * lines for the human-readable part of the output.
 */
struct Report
{
    std::size_t attempted = 0;
    std::size_t failed = 0;
    std::vector<std::string> problems;

    struct Metric
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Metric> metrics;
    std::vector<std::string> lines;

    void
    metric(const std::string &name, double value, const std::string &unit)
    {
        metrics.push_back({name, value, unit});
    }

    /** Count one operation; a false @p ok counts it failed. */
    void
    operation(bool ok, const std::string &what = "")
    {
        ++attempted;
        if (!ok) {
            ++failed;
            if (problems.size() < 20)
                problems.push_back(what);
        }
    }

    /** Check the run's digest against the pinned one, if any. */
    void checkPinned(const Options &opts, const Digest &digest);

    void line(const std::string &text) { lines.push_back(text); }
};

/**
 * In-memory span ledger for the traced runs.
 *
 * A Scope records one span (name, start, end, parent) around a call;
 * spans nest on one thread. Per-tile calls are far too many to keep one
 * record each, so leaf() folds every call of one layer under one open
 * parent into a single record carrying the call count and the summed
 * duration. Folding loses only the individual start times; self times
 * are unchanged because a leaf has no children.
 *
 * A disabled ledger records nothing and times nothing, so the same
 * replay code runs untraced for the overhead comparison.
 */
class Ledger
{
  public:
    explicit Ledger(bool enabled) : on(enabled) {}

    /** RAII span. */
    class Scope
    {
      public:
        Scope(Ledger &ledger, const char *name)
            : owner(ledger), id(ledger.open(name))
        {
        }
        ~Scope() { owner.close(id); }
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

      private:
        Ledger &owner;
        int id;
    };

    /** Time @p fn as one call of folded leaf layer @p name. */
    template <typename F>
    decltype(auto)
    leaf(const char *name, F &&fn)
    {
        if (!on)
            return fn();
        const Clock::time_point start = Clock::now();
        struct Stop
        {
            Ledger &l;
            const char *n;
            Clock::time_point s;
            ~Stop() { l.addLeaf(n, s, Clock::now()); }
        } stop{*this, name, start};
        return fn();
    }

    /** Aggregate of every span of one name. */
    struct Layer
    {
        std::string name;
        std::uint64_t calls = 0;
        double totalS = 0;
        double selfS = 0;
    };

    /** Per-name totals, in first-seen order. */
    std::vector<Layer> layers() const;

    /** Summed self time of every span except those named @p root. */
    double attributedS(const std::string &root) const;

    /** Write the spans as a Chrome trace (TraceWriter, microseconds). */
    void writeTrace(const std::string &path,
                    const std::string &scopeName) const;

  private:
    struct Span
    {
        const char *name;
        int parent;
        std::int64_t startNs;
        std::int64_t endNs;
        std::int64_t durNs; ///< folded leaves: summed call time
        std::uint64_t calls;
        std::int64_t childNs;
        /** Folded leaf children of an open span: (name, index). */
        std::vector<std::pair<const char *, int>> leaves;
    };

    int open(const char *name);
    void close(int id);
    void addLeaf(const char *name, Clock::time_point start,
                 Clock::time_point end);
    std::int64_t ns(Clock::time_point t) const;

    bool on;
    Clock::time_point epoch = Clock::now();
    std::vector<Span> spans;
    std::vector<int> stack;
};

/** Per-layer metric values by name; absent names report 0. */
using LayerValues = std::map<std::string, double>;

/** Name and unit of one reported metric. */
struct MetricSpec
{
    const char *name;
    const char *unit;
};

/** Every per-layer metric a traced run reports, in print order. */
const std::vector<MetricSpec> &perLayerMetrics();

/**
 * Copy the ledger's layers into @p values: `<layer>_s` (total time),
 * `<layer>_calls`, and `pipeline.self_s`, each divided by @p ops so a
 * run reports per-operation figures.
 */
void addLedgerLayers(LayerValues &values, const Ledger &ledger,
                     double ops = 1);

/** Report every perLayerMetrics() entry, 0 where @p values lacks it. */
void emitLayerMetrics(Report &report, const LayerValues &values);

/** Each workload: fills @p report for @p opts; throws on setup failure. */
void runSweepCatalog(const Options &opts, Report &report);
void runSweepSynthCompress(const Options &opts, Report &report);
void runServeMix(const Options &opts, Report &report);
void runIngestCbm(const Options &opts, Report &report);

/** Print the per-layer self-time table of a traced run. */
void printLayerTable(Report &report, const Ledger &ledger, double wallS);

} // namespace perfbench

#endif // PERFBENCH_RUNNER_COMMON_HH
