/**
 * @file
 * Span recording: the library's one host timer.
 *
 * A span is one named interval of work attributed to a trace
 * (request) and to a parent span, so the spans of one request assemble
 * into a tree: client call → server request → queue wait → handler →
 * study phases → per-design-point encodes, across whatever threads the
 * thread pool scattered them over (common/trace_context carries the
 * parent identity into pool tasks).
 *
 * SpanCollector keeps the recent spans in a bounded ring — always safe
 * to leave on, never grows without bound — and folds every span into a
 * per-name total (calls, summed and longest seconds). Those totals are
 * the host profile that `--profile` and `--stats-json` print. A
 * disabled ScopedSpan costs one relaxed atomic load, so the
 * instrumentation stays in the library's hot paths unconditionally.
 */

#ifndef COPERNICUS_TRACE_SPAN_HH
#define COPERNICUS_TRACE_SPAN_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <map>
#include <memory>
#include <string>
#include <string_view>
#include <vector>

#include "common/lock_order.hh"
#include "common/mutex.hh"
#include "common/stat_group.hh"
#include "common/thread_annotations.hh"
#include "common/trace_context.hh"
#include "trace/bounded_ring.hh"

namespace copernicus {

/** One completed span: a tree edge plus an interval. */
struct SpanRecord
{
    std::uint64_t traceId = 0;
    std::uint64_t spanId = 0;
    std::uint64_t parentSpanId = 0; ///< 0 = root of its trace
    std::string name;               ///< "study.partition", ...
    std::string track;              ///< display grouping: "serve", "study", ...
    std::uint64_t startUs = 0;      ///< observeNowUs() timestamps
    std::uint64_t endUs = 0;

    /** The record as one compact JSON object (ids in hex). */
    void writeJson(std::ostream &out) const;
};

/** Every recorded span of one name, folded together. */
struct SpanTotal
{
    std::string name;
    std::uint64_t calls = 0;
    double seconds = 0;
    double maxSeconds = 0;
};

/**
 * Process-wide bounded ring of completed spans plus their per-name
 * totals.
 *
 * record() and snapshot() are mutex-guarded with short critical
 * sections (one slot move and one table update / one vector copy);
 * when the ring laps, the oldest spans are overwritten and dropped()
 * counts them, so a long-lived daemon keeps the most recent history
 * without unbounded growth. The totals count every span, dropped ones
 * included. They hold one entry per span name; the daemon names its
 * spans with code literals, so no peer can grow the table.
 */
class SpanCollector
{
  public:
    /** Default ring capacity, in spans. */
    static constexpr std::size_t defaultCapacity = 4096;

    /** The collector every ScopedSpan reports to. */
    static SpanCollector &global();

    SpanCollector() = default;
    SpanCollector(const SpanCollector &) = delete;
    SpanCollector &operator=(const SpanCollector &) = delete;

    void
    setEnabled(bool enabled)
    {
        on.store(enabled, std::memory_order_relaxed);
    }

    bool
    enabled() const
    {
        return on.load(std::memory_order_relaxed);
    }

    /** Resize the ring (drops its contents, keeps the totals). */
    void setCapacity(std::size_t capacity);

    void record(SpanRecord span);

    /** Every retained span, oldest first. */
    std::vector<SpanRecord> snapshot() const;

    /** The retained spans of one trace, oldest first. */
    std::vector<SpanRecord> spansForTrace(std::uint64_t traceId) const;

    /** Spans recorded since construction/clear (retained or not). */
    std::uint64_t recorded() const;

    /** Spans overwritten by ring wrap-around. */
    std::uint64_t dropped() const;

    /** Per-name totals of every recorded span, sorted by name. */
    std::vector<SpanTotal> totals() const;

    /** Drop every retained span and reset the counters and totals. */
    void clear();

  private:
    std::atomic<bool> on{false};
    mutable Mutex mutex{lock_rank::spanCollector};
    BoundedRing<SpanRecord> ring COPERNICUS_GUARDED_BY(mutex){
        defaultCapacity};
    std::map<std::string, SpanTotal, std::less<>> byName
        COPERNICUS_GUARDED_BY(mutex);
};

/**
 * The span totals exported as a StatGroup named "profile": per name
 * `<name>.calls`, `<name>.seconds` and `<name>.max_seconds`, so the
 * profile dump shares the text and JSON machinery of every other stat.
 */
class SpanTotalsStats
{
  public:
    explicit SpanTotalsStats(const SpanCollector &collector =
                                 SpanCollector::global());

    const StatGroup &group() const { return grp; }

    void dump(std::ostream &out) const { grp.dump(out); }
    void dumpJson(std::ostream &out) const { grp.dumpJson(out); }

  private:
    StatGroup grp;
    std::vector<std::unique_ptr<ScalarStat>> owned;
};

/**
 * RAII span: measures from construction to destruction on the shared
 * observability clock, parents itself under the thread's current
 * TraceContext (starting a fresh trace when there is none), and makes
 * itself the current context so nested spans become its children.
 */
class ScopedSpan
{
  public:
    ScopedSpan(std::string_view name, std::string_view track,
               SpanCollector &collector = SpanCollector::global())
        : sink(&collector)
    {
        if (!sink->enabled())
            return;
        active = true;
        saved = currentTraceContext();
        record.traceId = saved.valid() ? saved.traceId : newTraceId();
        record.spanId = newSpanId();
        record.parentSpanId = saved.valid() ? saved.spanId : 0;
        record.name = std::string(name);
        record.track = std::string(track);
        record.startUs = observeNowUs();
        setCurrentTraceContext({record.traceId, record.spanId});
    }

    ~ScopedSpan()
    {
        if (!active)
            return;
        setCurrentTraceContext(saved);
        record.endUs = observeNowUs();
        sink->record(std::move(record));
    }

    ScopedSpan(const ScopedSpan &) = delete;
    ScopedSpan &operator=(const ScopedSpan &) = delete;

    /** This span's identity (invalid context when recording is off). */
    TraceContext
    context() const
    {
        return active ? TraceContext{record.traceId, record.spanId}
                      : TraceContext{};
    }

  private:
    SpanCollector *sink;
    SpanRecord record;
    TraceContext saved;
    bool active = false;
};

} // namespace copernicus

#endif // COPERNICUS_TRACE_SPAN_HH
