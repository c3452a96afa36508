#include "core/scheduler.hh"

#include <limits>

#include "common/status.hh"
#include "common/thread_pool.hh"
#include "trace/span.hh"

namespace copernicus {

namespace {

/** The objective's score of one priced tile; lower is better. */
double
score(const PartitionTiming &timing, SchedulerObjective objective)
{
    switch (objective) {
      case SchedulerObjective::Bottleneck:
        return static_cast<double>(timing.bottleneckCycles());
      case SchedulerObjective::Compute:
        return static_cast<double>(timing.computeCycles);
      case SchedulerObjective::Bytes:
        return static_cast<double>(timing.totalBytes);
    }
    panic("scheduler: unknown objective");
}

/** Argmin of the objective over the candidates, for one tile. */
FormatKind
chooseFormat(const Tile &tile, const std::vector<FormatKind> &candidates,
             SchedulerObjective objective, const HlsConfig &config,
             const FormatRegistry &registry)
{
    FormatKind best = candidates.front();
    auto best_score = std::numeric_limits<double>::infinity();
    for (FormatKind kind : candidates) {
        const double kind_score = score(
            timePartition(tile, registry.codec(kind), config), objective);
        if (kind_score < best_score) {
            best_score = kind_score;
            best = kind;
        }
    }
    return best;
}

} // namespace

FormatPlan
planFormats(const Partitioning &parts,
            const std::vector<FormatKind> &candidates,
            SchedulerObjective objective, const HlsConfig &config,
            const FormatRegistry &registry, unsigned jobs)
{
    COPERNICUS_FATAL_IF(candidates.empty(),
                        "planFormats needs at least one candidate format");

    const ScopedSpan span("scheduler.plan", "scheduler");
    FormatPlan plan;
    const std::size_t n = parts.tiles.size();
    plan.perTile.resize(n, candidates.front());

    // Every tile's choice is independent and lands in its own indexed
    // slot, so the fan-out is deterministic; nested calls (e.g. from a
    // parallel Study) fall back to a serial loop inside the pool.
    const auto choose = [&](std::size_t i) {
        plan.perTile[i] = chooseFormat(parts.tiles[i], candidates,
                                       objective, config, registry);
    };
    if (effectiveJobs(jobs) > 1 && n > 1) {
        ThreadPool::global().parallelFor(n, choose);
    } else {
        for (std::size_t i = 0; i < n; ++i)
            choose(i);
    }

    for (FormatKind kind : plan.perTile)
        ++plan.histogram[kind];
    return plan;
}

} // namespace copernicus
