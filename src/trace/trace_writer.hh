/**
 * @file
 * TraceWriter: records TraceSink events and serialises them as Chrome
 * trace_event JSON, loadable in chrome://tracing and Perfetto.
 *
 * Mapping: each beginScope() opens a trace *process* (pid) named after
 * the scope, each distinct track within a scope becomes a *thread*
 * (tid) with a thread_name metadata record, duration events are
 * complete ('X') events and counters are 'C' events. Timestamps are
 * model cycles written as the trace's microsecond field — the viewer's
 * "us" reads as cycles (noted in the file's metadata).
 */

#ifndef COPERNICUS_TRACE_TRACE_WRITER_HH
#define COPERNICUS_TRACE_TRACE_WRITER_HH

#include <iosfwd>
#include <map>
#include <string>
#include <vector>

#include "common/thread_pool.hh"
#include "trace/trace_sink.hh"

namespace copernicus {

/** Collects events in memory; write() emits the JSON document. */
class TraceWriter : public TraceSink
{
  public:
    /** One recorded event ('X' duration or 'C' counter). */
    struct Event
    {
        char phase = 'X';
        int pid = 0;
        std::string track; ///< empty for counters
        std::string name;
        Cycles ts = 0;
        Cycles dur = 0;   ///< 'X' only
        double value = 0; ///< 'C' only
        std::string args; ///< optional JSON object, emitted verbatim
    };

    TraceWriter();

    void beginScope(std::string_view name) override;
    void durationEvent(std::string_view track, std::string_view name,
                       Cycles start, Cycles end) override;
    void counterEvent(std::string_view counter, Cycles ts,
                      double value) override;

    /**
     * A duration event with an `args` payload — @p argsJson must be a
     * complete JSON object and is emitted verbatim. The serve drain
     * uses this to attach span/trace ids to span events, so the Chrome
     * trace retains the causal tree the timeline flattens.
     */
    void durationEventArgs(std::string_view track,
                           std::string_view name, Cycles start,
                           Cycles end, std::string argsJson);

    /**
     * Record thread-pool lane spans as one scope ("thread_pool") with
     * one track per worker lane, so the trace shows what each lane
     * executed over wall-clock time (microseconds in the viewer's "us"
     * field). Lanes are collected while
     * ThreadPool::setLaneRecording(true) is on; the CLI and benches
     * enable it under --trace and call this just before serialising.
     * No spans, no scope.
     */
    void recordWorkerLanes(const std::vector<ThreadPool::LaneSpan> &spans);

    const std::vector<Event> &events() const { return recorded; }
    std::size_t eventCount() const { return recorded.size(); }

    /**
     * Total busy cycles (sum of durations) on @p track across every
     * scope — tests compare this against EventSimResult busy totals.
     */
    Cycles trackBusy(std::string_view track) const;

    /** Emit the whole trace as one JSON document. */
    void write(std::ostream &out) const;

    /** write() to @p path; failure to open is a FatalError. */
    void writeFile(const std::string &path) const;

  private:
    std::vector<Event> recorded;
    std::vector<std::string> scopeNames; ///< index = pid
    int currentPid = 0;
};

} // namespace copernicus

#endif // COPERNICUS_TRACE_TRACE_WRITER_HH
