/**
 * @file
 * Shared helpers for the bench binaries that regenerate the paper's
 * tables and figures.
 *
 * Scale: benches default to laptop-friendly matrix sizes (surrogates at
 * half dimension, synthetic matrices at n = 1024 instead of the paper's
 * 8000). Setting COPERNICUS_FULL=1 in the environment switches to the
 * catalog/paper sizes. Per-partition metrics (sigma, balance ratio,
 * bandwidth utilization) are size-independent given the same density,
 * so the reduced scale preserves every trend; only absolute end-to-end
 * seconds shrink.
 */

#ifndef COPERNICUS_BENCH_BENCH_COMMON_HH
#define COPERNICUS_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/status.hh"
#include "common/thread_pool.hh"
#include "matrix/triplet_matrix.hh"
#include "trace/span.hh"
#include "trace/trace_writer.hh"
#include "workloads/generators.hh"
#include "workloads/suite_catalog.hh"

namespace copernicus::benchutil {

/** Fixed seed so bench output is reproducible run to run. */
inline constexpr std::uint64_t benchSeed = 0xC0FFEE;

/** True when COPERNICUS_FULL=1 requests paper-scale workloads. */
inline bool
fullScale()
{
    const char *env = std::getenv("COPERNICUS_FULL");
    return env != nullptr && env[0] == '1';
}

/** Synthetic matrix dimension (paper: 8000). */
inline Index
syntheticDim()
{
    return fullScale() ? 8000 : 1024;
}

/** The density sweep of Figures 5, 9 and 10. */
inline std::vector<double>
densitySweep()
{
    return {0.0001, 0.001, 0.01, 0.1, 0.2, 0.5};
}

/** The band-width sweep of Figures 6 and 11 (width 1 = diagonal). */
inline std::vector<Index>
bandWidths()
{
    return {1, 2, 4, 8, 16, 32, 64};
}

/** Named workload list. */
using WorkloadSet = std::vector<std::pair<std::string, TripletMatrix>>;

/**
 * Fill a pre-sized workload set in parallel over the process-wide
 * pool. Each generator draws from its own per-index seed, so the
 * matrices are identical at any jobs setting.
 */
inline void
generateWorkloads(WorkloadSet &set,
                  const std::function<TripletMatrix(std::size_t)> &make)
{
    ThreadPool::global().parallelFor(set.size(), [&](std::size_t i) {
        set[i].second = make(i);
    });
}

/** The 20 Table-1 surrogates at bench scale. */
inline WorkloadSet
suiteWorkloads()
{
    const auto &catalog = suiteCatalog();
    WorkloadSet set;
    for (const auto &info : catalog)
        set.emplace_back(info.id, TripletMatrix(1, 1));
    generateWorkloads(set, [&](std::size_t i) {
        SuiteMatrixInfo scaled = catalog[i];
        if (!fullScale())
            scaled.surrogateDim =
                std::max<Index>(512, catalog[i].surrogateDim / 2);
        return scaled.generate(benchSeed);
    });
    return set;
}

/** Random matrices across the density sweep. */
inline WorkloadSet
randomWorkloads()
{
    const auto densities = densitySweep();
    WorkloadSet set;
    for (double density : densities)
        set.emplace_back("d=" + std::to_string(density),
                         TripletMatrix(1, 1));
    generateWorkloads(set, [&](std::size_t i) {
        std::uint64_t sm = benchSeed + i;
        Rng rng(splitMix64(sm));
        return randomMatrix(syntheticDim(), densities[i], rng);
    });
    return set;
}

/** Band matrices across the width sweep. */
inline WorkloadSet
bandWorkloads()
{
    const auto widths = bandWidths();
    WorkloadSet set;
    for (Index width : widths)
        set.emplace_back("w=" + std::to_string(width), TripletMatrix(1, 1));
    generateWorkloads(set, [&](std::size_t i) {
        std::uint64_t sm = benchSeed + 0x100 + i;
        Rng rng(splitMix64(sm));
        return bandMatrix(syntheticDim(), widths[i], rng);
    });
    return set;
}

/** Observability flags shared by every bench binary. */
struct BenchFlags
{
    std::string tracePath;
    std::string statsJsonPath;
    bool profile = false;
};

inline BenchFlags &
benchFlags()
{
    static BenchFlags flags;
    return flags;
}

/** The writer installed as the process-wide sink under --trace. */
inline TraceWriter &
benchTraceWriter()
{
    static TraceWriter writer;
    return writer;
}

/** atexit hook: write the artifacts the flags asked for. */
inline void
writeBenchArtifacts()
{
    const BenchFlags &flags = benchFlags();
    if (!flags.tracePath.empty()) {
        setActiveTraceSink(nullptr);
        // Pool workers never emit into the writer directly (it is
        // single-threaded); their activity is recorded as lane spans
        // and serialised here, after all parallel work is done.
        benchTraceWriter().recordWorkerLanes(ThreadPool::drainLaneSpans());
        benchTraceWriter().writeFile(flags.tracePath);
        std::fprintf(stderr, "wrote Chrome trace (%zu events) to %s\n",
                     benchTraceWriter().eventCount(),
                     flags.tracePath.c_str());
    }
    if (flags.profile || !flags.statsJsonPath.empty()) {
        const SpanTotalsStats stats;
        const ThreadPoolStats poolStats;
        if (flags.profile)
            stats.dump(std::cerr);
        if (!flags.statsJsonPath.empty()) {
            std::ofstream out(flags.statsJsonPath);
            COPERNICUS_FATAL_IF(!out,
                                "cannot open '" + flags.statsJsonPath + "'");
            dumpGroupsJson(out, {&stats.group(), &poolStats.group()});
            std::fprintf(stderr, "wrote stats JSON to %s\n",
                         flags.statsJsonPath.c_str());
        }
    }
}

/**
 * Parse `--trace <path>`, `--stats-json <path>`, `--profile` and
 * `--jobs N`; unknown arguments are ignored so benches can add their
 * own. Installs the global trace sink / enables span recording (the
 * span totals are the profile group) and registers an atexit hook
 * that writes the artifacts, so a bench body needs no further code.
 * `--jobs N` caps every pool in the process (equivalent to
 * COPERNICUS_JOBS=N in the environment).
 */
inline void
parseBenchFlags(int argc, char **argv)
{
    BenchFlags &flags = benchFlags();
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--profile") {
            flags.profile = true;
        } else if ((arg == "--trace" || arg == "--stats-json") &&
                   i + 1 < argc) {
            (arg == "--trace" ? flags.tracePath
                              : flags.statsJsonPath) = argv[++i];
        } else if (arg == "--jobs" && i + 1 < argc) {
            const long n = std::strtol(argv[++i], nullptr, 10);
            COPERNICUS_FATAL_IF(n < 1, "--jobs wants a positive integer");
            setJobsOverride(static_cast<unsigned>(n));
        }
    }
    if (flags.profile || !flags.statsJsonPath.empty())
        SpanCollector::global().setEnabled(true);
    if (!flags.tracePath.empty()) {
        setActiveTraceSink(&benchTraceWriter());
        ThreadPool::setLaneRecording(true);
    }
    if (flags.profile || !flags.statsJsonPath.empty() ||
        !flags.tracePath.empty()) {
        std::atexit(writeBenchArtifacts);
    }
}

/**
 * Print the standard bench banner; the argc/argv form also wires up
 * the shared observability flags via parseBenchFlags().
 */
inline void
banner(const char *experiment, const char *description)
{
    std::printf("== %s ==\n%s\n", experiment, description);
    std::printf("scale: %s (set COPERNICUS_FULL=1 for paper scale)\n\n",
                fullScale() ? "paper" : "reduced");
}

inline void
banner(const char *experiment, const char *description, int argc,
       char **argv)
{
    parseBenchFlags(argc, argv);
    banner(experiment, description);
}

} // namespace copernicus::benchutil

#endif // COPERNICUS_BENCH_BENCH_COMMON_HH
