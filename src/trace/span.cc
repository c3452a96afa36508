#include "trace/span.hh"

#include <algorithm>
#include <ostream>

#include "common/json.hh"

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
SpanCollector::setCapacity(std::size_t capacity)
{
    const MutexLock lock(mutex);
    ring.setCapacity(capacity);
}

void
SpanCollector::record(SpanRecord span)
{
    const double seconds =
        span.endUs > span.startUs
            ? static_cast<double>(span.endUs - span.startUs) * 1e-6
            : 0.0;
    const MutexLock lock(mutex);
    auto it = byName.find(span.name);
    if (it == byName.end())
        it = byName.emplace(span.name, SpanTotal{span.name}).first;
    SpanTotal &total = it->second;
    ++total.calls;
    total.seconds += seconds;
    total.maxSeconds = std::max(total.maxSeconds, seconds);
    ring.push(std::move(span));
}

std::vector<SpanRecord>
SpanCollector::snapshot() const
{
    const MutexLock lock(mutex);
    return ring.snapshot();
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
    return ring.recorded();
}

std::uint64_t
SpanCollector::dropped() const
{
    const MutexLock lock(mutex);
    return ring.dropped();
}

std::vector<SpanTotal>
SpanCollector::totals() const
{
    const MutexLock lock(mutex);
    std::vector<SpanTotal> out;
    out.reserve(byName.size());
    for (const auto &[name, total] : byName)
        out.push_back(total);
    return out;
}

void
SpanCollector::clear()
{
    const MutexLock lock(mutex);
    ring.clear();
    byName.clear();
}

SpanTotalsStats::SpanTotalsStats(const SpanCollector &collector)
    : grp("profile")
{
    auto add = [this](const std::string &name, const char *desc,
                      double value) {
        auto stat = std::make_unique<ScalarStat>(grp, name, desc);
        *stat = value;
        owned.push_back(std::move(stat));
    };
    for (const SpanTotal &total : collector.totals()) {
        add(total.name + ".calls", "spans recorded under the name",
            static_cast<double>(total.calls));
        add(total.name + ".seconds", "total wall-clock seconds inside",
            total.seconds);
        add(total.name + ".max_seconds", "longest single span",
            total.maxSeconds);
    }
}

} // namespace copernicus
