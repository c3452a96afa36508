#include "trace/flight_recorder.hh"

#include <fstream>
#include <ostream>

#include "common/status.hh"
#include "trace/span.hh"

namespace copernicus {

FlightRecorder &
FlightRecorder::global()
{
    static FlightRecorder recorder;
    return recorder;
}

void
FlightRecorder::setCapacity(std::size_t capacity)
{
    const MutexLock lock(mutex);
    ring.setCapacity(capacity);
}

void
FlightRecorder::record(std::string wideEventJson)
{
    const MutexLock lock(mutex);
    ring.push(std::move(wideEventJson));
}

std::vector<std::string>
FlightRecorder::snapshot() const
{
    const MutexLock lock(mutex);
    return ring.snapshot();
}

std::uint64_t
FlightRecorder::recorded() const
{
    const MutexLock lock(mutex);
    return ring.recorded();
}

std::uint64_t
FlightRecorder::dropped() const
{
    const MutexLock lock(mutex);
    return ring.dropped();
}

void
FlightRecorder::clear()
{
    const MutexLock lock(mutex);
    ring.clear();
}

void
FlightRecorder::dump(std::ostream &out) const
{
    // Snapshot first so the dump never holds the ring lock while
    // formatting — a dump must not stall request threads.
    const std::vector<std::string> events = snapshot();
    const std::uint64_t eventsDropped = dropped();
    const SpanCollector &spans = SpanCollector::global();
    const std::vector<SpanRecord> spanRecords = spans.snapshot();
    const std::uint64_t spansDropped = spans.dropped();

    out << "{\"wide_events\": [";
    for (std::size_t i = 0; i < events.size(); ++i) {
        if (i > 0)
            out << ", ";
        out << events[i];
    }
    out << "], \"wide_events_dropped\": " << eventsDropped
        << ", \"spans\": [";
    for (std::size_t i = 0; i < spanRecords.size(); ++i) {
        if (i > 0)
            out << ", ";
        spanRecords[i].writeJson(out);
    }
    out << "], \"spans_dropped\": " << spansDropped << '}';
}

void
FlightRecorder::dumpToFile(const std::string &path) const
{
    std::ofstream out(path);
    COPERNICUS_FATAL_IF(!out, "FlightRecorder: cannot open '" + path + "'");
    dump(out);
    out << '\n';
}

} // namespace copernicus
