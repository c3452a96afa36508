/**
 * @file
 * Always-on in-memory flight recorder for the serve path.
 *
 * Post-mortems usually start after the interesting request is gone:
 * tracing was off, the histogram only says *that* something was slow.
 * The flight recorder closes that gap by always retaining the last N
 * wide events — one compact JSON object per finished request
 * (endpoint, trace id, deadline budget vs used, queue wait, memo
 * hit, outcome) — in a bounded ring, pre-serialised at record
 * time so a dump never has to consult live server state.
 *
 * dump() writes one JSON document combining the wide-event ring with
 * the SpanCollector's span ring, which is enough to reconstruct the
 * span tree and the request timeline of anything still retained. The
 * daemon wires dumps to SIGQUIT, std::terminate and the
 * `dump_flightrec` endpoint; dumping from a signal/terminate handler
 * is best-effort (it allocates), which is the accepted trade for
 * getting a usable artifact out of a dying process.
 */

#ifndef COPERNICUS_TRACE_FLIGHT_RECORDER_HH
#define COPERNICUS_TRACE_FLIGHT_RECORDER_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "common/lock_order.hh"
#include "common/mutex.hh"
#include "common/thread_annotations.hh"

namespace copernicus {

/** Bounded ring of per-request wide events; see file comment. */
class FlightRecorder
{
  public:
    /** The process-wide recorder the server records into. */
    static FlightRecorder &global();

    FlightRecorder() = default;
    FlightRecorder(const FlightRecorder &) = delete;
    FlightRecorder &operator=(const FlightRecorder &) = delete;

    /** Resize the ring (drops current contents). Capacity >= 1. */
    void setCapacity(std::size_t capacity);

    /**
     * Retain one wide event. @p wideEventJson must be a complete,
     * newline-free JSON object; it is stored verbatim.
     */
    void record(std::string wideEventJson);

    /** Retained wide events, oldest first. */
    std::vector<std::string> snapshot() const;

    /** Wide events recorded since construction/clear. */
    std::uint64_t recorded() const;

    /** Wide events overwritten by ring wrap-around. */
    std::uint64_t dropped() const;

    void clear();

    /**
     * The whole black box as one compact JSON document:
     * `{"wide_events": [...], "wide_events_dropped": N,
     *   "spans": [...], "spans_dropped": M}` — spans come from
     * SpanCollector::global().
     */
    void dump(std::ostream &out) const;

    /** dump() to @p path; failure to open is a FatalError. */
    void dumpToFile(const std::string &path) const;

  private:
    mutable Mutex mutex{lock_rank::flightRecorder};
    std::vector<std::string> ring COPERNICUS_GUARDED_BY(mutex);
    std::size_t capacity COPERNICUS_GUARDED_BY(mutex) = 512;
    std::size_t head COPERNICUS_GUARDED_BY(mutex) = 0;
    std::uint64_t total COPERNICUS_GUARDED_BY(mutex) = 0;
};

} // namespace copernicus

#endif // COPERNICUS_TRACE_FLIGHT_RECORDER_HH
