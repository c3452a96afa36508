/**
 * @file
 * Event-driven simulation of the Figure-2 pipeline.
 *
 * Where stream_pipeline.cc charges each partition the maximum of its
 * stage latencies (the steady-state bound), this simulator schedules
 * every stage of every partition explicitly under double buffering:
 * the read of partition i may start once the read of i-1 finished and
 * the compute of i-2 released its input buffer; compute needs its own
 * read done and the previous compute done; write needs its compute
 * done and the previous write done. The result is an exact timeline
 * with per-stage busy/stall accounting, used by tests to bound the
 * analytic model and by the ablation bench to show where bubbles come
 * from (the paper's "imbalance streaming leads to idle computation or
 * pauses in data transfer").
 */

#ifndef COPERNICUS_PIPELINE_EVENT_SIM_HH
#define COPERNICUS_PIPELINE_EVENT_SIM_HH

#include "pipeline/stream_pipeline.hh"
#include "trace/trace_sink.hh"

namespace copernicus {

/** Scheduled interval of one partition through the three stages. */
struct TileSchedule
{
    Cycles readStart = 0;
    Cycles readEnd = 0;
    Cycles computeStart = 0;
    Cycles computeEnd = 0;
    Cycles writeStart = 0;
    Cycles writeEnd = 0;
};

/** Outcome of an event-driven run. */
struct EventSimResult
{
    FormatKind format = FormatKind::Dense;
    Index partitionSize = 0;

    /** Per-partition timeline, streaming order. */
    std::vector<TileSchedule> schedule;

    /** Completion time of the last write. */
    Cycles totalCycles = 0;

    /** Cycles each stage spent busy. */
    Cycles readBusy = 0;
    Cycles computeBusy = 0;
    Cycles writeBusy = 0;

    /** Idle gaps inside the compute stage (the paper's bubbles). */
    Cycles computeStall = 0;

    /** Idle gaps inside the read stage (paused transfers). */
    Cycles readStall = 0;
};

/**
 * Simulate the pipeline event by event.
 *
 * @param parts Partitioning of the operand matrix.
 * @param kind Compression format.
 * @param config Platform parameters.
 * @param registry Codec source.
 * @param inputBuffers Input-buffer slots between the read and compute
 *        stages: the read of partition i waits for the compute of
 *        partition i - inputBuffers to release its slot (2 = the
 *        classic ping-pong double buffer).
 * @param sink Timeline sink, resolved by resolveTraceSink(). Emits
 *        read/compute/write duration events per partition plus bw_util
 *        and sigma counters; never affects the returned cycles.
 */
EventSimResult runEventSim(const Partitioning &parts, FormatKind kind,
                           const HlsConfig &config = HlsConfig(),
                           const FormatRegistry &registry =
                               defaultRegistry(),
                           Index inputBuffers = 2,
                           TraceSink *sink = nullptr);

} // namespace copernicus

#endif // COPERNICUS_PIPELINE_EVENT_SIM_HH
