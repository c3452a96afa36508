/**
 * @file
 * TraceSink: the zero-cost-when-disabled emission interface the
 * pipeline simulators publish their timelines through.
 *
 * The simulators (event_sim, stream_pipeline, parallel_pipeline) take
 * an optional `TraceSink *` and resolve it with resolveTraceSink();
 * when that yields null they skip every emission — a single pointer
 * test per partition — and their numeric results are bit-identical
 * either way (asserted by tests/test_trace.cc). TraceWriter is the
 * standard implementation, serialising to Chrome trace_event JSON;
 * tests install tiny in-memory sinks instead.
 *
 * This header depends only on common/types.hh so every layer can
 * accept a sink without linking the trace library.
 */

#ifndef COPERNICUS_TRACE_TRACE_SINK_HH
#define COPERNICUS_TRACE_TRACE_SINK_HH

#include <string_view>

#include "common/types.hh"

namespace copernicus {

/** Receives timeline events from one or more simulator runs. */
class TraceSink
{
  public:
    virtual ~TraceSink();

    /**
     * Start a new logical timeline (one simulator run); cycle 0 of
     * subsequent events is the start of that run. TraceWriter maps
     * scopes to trace processes so runs don't overlap in the viewer.
     */
    virtual void
    beginScope(std::string_view name)
    {
        (void)name;
    }

    /**
     * A span of busy time on a named track (e.g. pipeline stage
     * "read"), with @p start/@p end in cycles since the scope began.
     * @p name labels the span itself, e.g. "p12" for partition 12.
     */
    virtual void durationEvent(std::string_view track,
                               std::string_view name, Cycles start,
                               Cycles end) = 0;

    /** A sampled counter value (sigma, bandwidth utilization, ...). */
    virtual void counterEvent(std::string_view counter, Cycles ts,
                              double value) = 0;
};

/**
 * Process-wide default sink consulted by the simulators when no
 * explicit sink argument is passed; null (the initial state) disables
 * tracing. Used by bench_common.hh to capture whole-bench traces
 * without threading a sink through every call site. Not thread-safe:
 * install before spawning work.
 */
TraceSink *activeTraceSink();

/** Install (or with nullptr remove) the process-wide sink. */
void setActiveTraceSink(TraceSink *sink);

/**
 * Sentinel sink meaning "force tracing off for this call". Passing
 * `&noTraceSink()` as an explicit sink argument suppresses the
 * activeTraceSink() fallback: resolveTraceSink() maps its address to
 * null, so every simulator skips emission entirely. The parallel sweep
 * paths use this: the per-partition timeline of interleaved workers is
 * meaningless, and TraceWriter is single-threaded by design (worker
 * activity is instead reported as pool lanes, see
 * ThreadPool::setLaneRecording).
 */
TraceSink &noTraceSink();

/**
 * The sink a simulator run emits to: @p sink if non-null, else
 * activeTraceSink(); null when that is unset or is `&noTraceSink()`
 * (tracing off).
 */
TraceSink *resolveTraceSink(TraceSink *sink);

} // namespace copernicus

#endif // COPERNICUS_TRACE_TRACE_SINK_HH
