/**
 * @file
 * Working-set gate of the sweep: Study::run over the 20 bench-scale
 * Table-1 surrogates at jobs 4 may raise the process's peak resident
 * set (VmHWM) by at most a budget over its resident set (VmRSS) just
 * before the sweep. Study::run builds each (workload, partition size)
 * partitioning about one lane-count of combinations ahead of its first
 * design point and frees it after its last, so the rise follows the
 * lane count, not the design space. Holding all 60 partitionings at
 * once, as a sweep that partitions everything up front does, exceeds
 * the budget.
 *
 * The test is an executable of its own so that its process starts
 * fresh: nothing run before it has raised VmHWM.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <string>

#include <gtest/gtest.h>

#include "core/study.hh"
#include "workloads/suite_catalog.hh"

namespace copernicus {
namespace {

/** A "Name:   N kB" field of /proc/self/status, in KiB; 0 if absent. */
std::uint64_t
statusKb(const std::string &field)
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind(field + ":", 0) == 0)
            return std::strtoull(line.c_str() + field.size() + 1, nullptr,
                                 10);
    return 0;
}

/**
 * The largest VmHWM rise, in MiB, that the sweep may cause. On a
 * 4-vCPU Linux VM the streamed sweep rose 17-23 MiB and a sweep that
 * partitions every combination first rose 75 MiB. Sanitizers keep
 * freed blocks and shadow memory resident, so their builds get
 * budgets of their own, again between the two sweeps' rises: under
 * ASan (whose 256 MiB quarantine is most of the rise) 450-453 against
 * 559-561 MiB, under TSan 108 against 392 MiB.
 */
std::uint64_t
budgetMb()
{
#if defined(__SANITIZE_ADDRESS__)
    return 512;
#elif defined(__SANITIZE_THREAD__)
    return 192;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    return 512;
#elif __has_feature(thread_sanitizer)
    return 192;
#endif
#endif
    return 48;
}

TEST(SweepWorkingSetTest, CatalogSweepPeakFollowsLanesNotDesignSpace)
{
    StudyConfig cfg;
    cfg.jobs = 4;
    Study study(cfg);
    for (const SuiteMatrixInfo &info : suiteCatalog()) {
        SuiteMatrixInfo scaled = info;
        scaled.surrogateDim = std::max<Index>(512, info.surrogateDim / 2);
        study.addWorkload(info.id, scaled.generate(1));
    }

    const std::uint64_t rssKb = statusKb("VmRSS");
    if (rssKb == 0)
        GTEST_SKIP() << "no VmRSS in /proc/self/status";
    const StudyResult result = study.run();
    const std::uint64_t peakKb = statusKb("VmHWM");
    ASSERT_EQ(result.rows.size(), 20u * 3u * paperFormats().size());

    const std::uint64_t riseKb = peakKb > rssKb ? peakKb - rssKb : 0;
    std::printf("VmRSS before the sweep %.1f MiB, VmHWM after %.1f MiB, "
                "rise %.1f MiB (budget %llu MiB)\n",
                static_cast<double>(rssKb) / 1024.0,
                static_cast<double>(peakKb) / 1024.0,
                static_cast<double>(riseKb) / 1024.0,
                static_cast<unsigned long long>(budgetMb()));
    EXPECT_LE(riseKb, budgetMb() * 1024);
}

} // namespace
} // namespace copernicus
