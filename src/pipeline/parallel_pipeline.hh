/**
 * @file
 * Coarse-grained parallelism: several instances of the Figure-2
 * pipeline working on one matrix ("Instances of this architecture can
 * be aggregated for implementing coarse-grain parallelism",
 * Section 5.1).
 *
 * Non-zero partitions are distributed across processing elements (PEs)
 * and every PE runs the single-pipeline model independently; the
 * slowest PE bounds the parallel compute time. All PEs share one DDR3
 * channel, so the aggregate transfer demand also bounds the run — the
 * model reports which of the two limits binds, which is exactly the
 * balance question of Section 6.2 at the system level.
 */

#ifndef COPERNICUS_PIPELINE_PARALLEL_PIPELINE_HH
#define COPERNICUS_PIPELINE_PARALLEL_PIPELINE_HH

#include "pipeline/stream_pipeline.hh"

namespace copernicus {

/** How partitions are assigned to PEs. */
enum class ScheduleKind
{
    RoundRobin, ///< tile i goes to PE i mod N (streaming order)
    LoadBalanced, ///< longest-processing-time by bottleneck cycles
};

/** Result of a multi-PE run. */
struct ParallelResult
{
    FormatKind format = FormatKind::Dense;
    Index partitionSize = 0;
    Index peCount = 1;
    ScheduleKind schedule = ScheduleKind::RoundRobin;

    /** Per-PE end-to-end cycles (fill/drain included). */
    std::vector<Cycles> peCycles;

    /** max(peCycles): the compute-side bound. */
    Cycles computeBoundCycles = 0;

    /** Cycles to push every partition through the shared channel. */
    Cycles memoryBoundCycles = 0;

    /** The binding constraint: max(compute, memory). */
    Cycles totalCycles = 0;

    /** True when the shared memory channel is the bottleneck. */
    bool memoryBound = false;

    /** Speedup versus the same run on one PE. */
    double speedup = 0;

    /** totalCycles at the configured clock. */
    double seconds = 0;
};

/**
 * Run @p parts through @p peCount aggregated pipelines.
 *
 * @param parts Partitioning of the operand matrix.
 * @param kind Compression format.
 * @param peCount Number of pipeline instances (>= 1).
 * @param schedule Tile-assignment policy.
 * @param config Platform parameters (shared by every PE).
 * @param registry Codec source.
 * @param sink Timeline sink, resolved by resolveTraceSink(). Emits
 *        one lane track per PE ("pe0", "pe1", ...) with each assigned
 *        tile as a slot of its bottleneck cycles; the single-PE
 *        baseline behind the speedup figure reuses the same tile
 *        timings and is never traced. Never affects the returned
 *        cycles.
 */
ParallelResult runParallel(const Partitioning &parts, FormatKind kind,
                           Index peCount,
                           ScheduleKind schedule =
                               ScheduleKind::RoundRobin,
                           const HlsConfig &config = HlsConfig(),
                           const FormatRegistry &registry =
                               defaultRegistry(),
                           TraceSink *sink = nullptr);

} // namespace copernicus

#endif // COPERNICUS_PIPELINE_PARALLEL_PIPELINE_HH
