#include "trace/span.hh"

#include <ostream>

#include "common/json.hh"
#include "common/status.hh"

namespace copernicus {

void
SpanRecord::writeJson(std::ostream &out) const
{
    out << "{\"trace_id\": ";
    writeJsonString(out, traceIdToHex(traceId));
    out << ", \"span_id\": ";
    writeJsonString(out, traceIdToHex(spanId));
    out << ", \"parent_span_id\": ";
    writeJsonString(out, traceIdToHex(parentSpanId));
    out << ", \"name\": ";
    writeJsonString(out, name);
    out << ", \"track\": ";
    writeJsonString(out, track);
    out << ", \"start_us\": " << startUs << ", \"end_us\": " << endUs
        << '}';
}

SpanCollector &
SpanCollector::global()
{
    static SpanCollector collector;
    return collector;
}

void
SpanCollector::setCapacity(std::size_t newCapacity)
{
    COPERNICUS_FATAL_IF(newCapacity == 0,
                        "SpanCollector capacity must be >= 1");
    const MutexLock lock(mutex);
    ring.clear();
    capacity = newCapacity;
    head = 0;
    total = 0;
}

void
SpanCollector::record(SpanRecord span)
{
    const MutexLock lock(mutex);
    ++total;
    if (ring.size() < capacity) {
        ring.push_back(std::move(span));
        return;
    }
    ring[head] = std::move(span);
    head = (head + 1) % capacity;
}

std::vector<SpanRecord>
SpanCollector::snapshot() const
{
    const MutexLock lock(mutex);
    std::vector<SpanRecord> spans;
    spans.reserve(ring.size());
    // Once the ring has lapped, head is the oldest retained slot.
    for (std::size_t i = 0; i < ring.size(); ++i)
        spans.push_back(ring[(head + i) % ring.size()]);
    return spans;
}

std::vector<SpanRecord>
SpanCollector::spansForTrace(std::uint64_t traceId) const
{
    std::vector<SpanRecord> spans;
    for (SpanRecord &span : snapshot()) {
        if (span.traceId == traceId)
            spans.push_back(std::move(span));
    }
    return spans;
}

std::uint64_t
SpanCollector::recorded() const
{
    const MutexLock lock(mutex);
    return total;
}

std::uint64_t
SpanCollector::dropped() const
{
    const MutexLock lock(mutex);
    return total - ring.size();
}

void
SpanCollector::clear()
{
    const MutexLock lock(mutex);
    ring.clear();
    head = 0;
    total = 0;
}

} // namespace copernicus
