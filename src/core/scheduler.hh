/**
 * @file
 * Adaptive per-partition format selection.
 *
 * The paper characterizes one format for the whole matrix; its
 * insights (Section 8) immediately suggest the next step an architect
 * would take — pick the format per partition, since a matrix's tiles
 * differ wildly in density and structure (Figure 3). The scheduler
 * scores each candidate format on each non-zero tile with the same
 * models the characterization uses (AXI transfer cycles, decompressor
 * cycles) and picks the per-tile argmin of the selected objective; the
 * mixed pipeline then streams the result.
 */

#ifndef COPERNICUS_CORE_SCHEDULER_HH
#define COPERNICUS_CORE_SCHEDULER_HH

#include <map>
#include <vector>

#include "pipeline/stream_pipeline.hh"

namespace copernicus {

/** What the per-tile choice minimizes/maximizes. */
enum class SchedulerObjective
{
    /** Minimize the tile's pipeline bottleneck (max of stages). */
    Bottleneck,
    /** Minimize the tile's compute cycles. */
    Compute,
    /** Minimize bytes on the wire (maximize bandwidth utilization). */
    Bytes,
};

/** Outcome of a per-tile selection. */
struct FormatPlan
{
    /** Chosen format per non-zero tile, streaming order. */
    std::vector<FormatKind> perTile;

    /** How many tiles chose each format. */
    std::map<FormatKind, std::size_t> histogram;
};

/**
 * Choose the best format per tile.
 *
 * Tiles are scored independently and the per-tile argmin is written
 * to an indexed slot, so the plan is bit-identical at any jobs
 * setting.
 *
 * @param parts Partitioning of the operand matrix.
 * @param candidates Formats the hardware implements decoders for.
 * @param objective What to minimize.
 * @param config Platform parameters.
 * @param registry Codec source.
 * @param jobs Execution lanes: 0 = auto (COPERNICUS_JOBS / --jobs /
 *        hardware), 1 = serial; > 1 fans out over the process-wide
 *        ThreadPool::global() (whose size caps actual parallelism).
 */
FormatPlan planFormats(const Partitioning &parts,
                       const std::vector<FormatKind> &candidates,
                       SchedulerObjective objective =
                           SchedulerObjective::Bottleneck,
                       const HlsConfig &config = HlsConfig(),
                       const FormatRegistry &registry =
                           defaultRegistry(),
                       unsigned jobs = 0);

/**
 * Plan then stream: the adaptive counterpart of runPipeline.
 */
PipelineResult runAdaptive(const Partitioning &parts,
                           const std::vector<FormatKind> &candidates,
                           SchedulerObjective objective =
                               SchedulerObjective::Bottleneck,
                           const HlsConfig &config = HlsConfig(),
                           const FormatRegistry &registry =
                               defaultRegistry(),
                           unsigned jobs = 0);

} // namespace copernicus

#endif // COPERNICUS_CORE_SCHEDULER_HH
