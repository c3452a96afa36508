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
FlightRecorder::setCapacity(std::size_t newCapacity)
{
    COPERNICUS_FATAL_IF(newCapacity == 0,
                        "FlightRecorder capacity must be >= 1");
    const MutexLock lock(mutex);
    ring.clear();
    capacity = newCapacity;
    head = 0;
    total = 0;
}

void
FlightRecorder::record(std::string wideEventJson)
{
    const MutexLock lock(mutex);
    ++total;
    if (ring.size() < capacity) {
        ring.push_back(std::move(wideEventJson));
        return;
    }
    ring[head] = std::move(wideEventJson);
    head = (head + 1) % capacity;
}

std::vector<std::string>
FlightRecorder::snapshot() const
{
    const MutexLock lock(mutex);
    std::vector<std::string> events;
    events.reserve(ring.size());
    for (std::size_t i = 0; i < ring.size(); ++i)
        events.push_back(ring[(head + i) % ring.size()]);
    return events;
}

std::uint64_t
FlightRecorder::recorded() const
{
    const MutexLock lock(mutex);
    return total;
}

std::uint64_t
FlightRecorder::dropped() const
{
    const MutexLock lock(mutex);
    return total - ring.size();
}

void
FlightRecorder::clear()
{
    const MutexLock lock(mutex);
    ring.clear();
    head = 0;
    total = 0;
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
