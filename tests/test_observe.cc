/**
 * @file
 * Unit tests of the observability plane's building blocks: trace
 * context propagation (thread-local scopes, pool capture), the span
 * collector ring, its per-name totals (the host profile) and
 * ScopedSpan parenting, the flight recorder, the Prometheus
 * writer/validator pair, and DistributionStat's snapshot/merge API.
 *
 * Labeled tsan: the snapshot-vs-sample hammer test exists precisely to
 * run under -DCOPERNICUS_SANITIZE=thread — it pins down the satellite
 * requirement that a metrics scrape and a stats flush can never race a
 * request thread's sample().
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cmath>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/json.hh"
#include "common/prometheus.hh"
#include "common/stat_group.hh"
#include "common/status.hh"
#include "common/thread_pool.hh"
#include "common/trace_context.hh"
#include "trace/flight_recorder.hh"
#include "trace/span.hh"

namespace copernicus {
namespace {

// ---------------------------------------------------------------- //
// Trace context
// ---------------------------------------------------------------- //

TEST(TraceContextTest, DefaultIsInvalidAndScopeRestores)
{
    // Start from a clean slate whatever earlier tests did.
    setCurrentTraceContext(TraceContext{});
    EXPECT_FALSE(currentTraceContext().valid());

    const TraceContext outer{newTraceId(), newSpanId()};
    {
        const TraceContextScope scope(outer);
        EXPECT_EQ(currentTraceContext().traceId, outer.traceId);
        EXPECT_EQ(currentTraceContext().spanId, outer.spanId);
        {
            const TraceContext inner{outer.traceId, newSpanId()};
            const TraceContextScope nested(inner);
            EXPECT_EQ(currentTraceContext().spanId, inner.spanId);
        }
        // The nested scope restored its parent exactly.
        EXPECT_EQ(currentTraceContext().spanId, outer.spanId);
    }
    EXPECT_FALSE(currentTraceContext().valid());
}

TEST(TraceContextTest, IdsAreUniqueAndNonZero)
{
    const std::uint64_t a = newTraceId();
    const std::uint64_t b = newTraceId();
    const std::uint64_t s = newSpanId();
    EXPECT_NE(a, 0u);
    EXPECT_NE(b, 0u);
    EXPECT_NE(s, 0u);
    EXPECT_NE(a, b);
}

TEST(TraceContextTest, HexWireFormRoundTrips)
{
    EXPECT_EQ(traceIdToHex(0), "0");
    EXPECT_EQ(traceIdToHex(0x1a2b), "1a2b");
    EXPECT_EQ(traceIdFromHex("1a2b"), 0x1a2bu);
    EXPECT_EQ(traceIdFromHex("1A2B"), 0x1a2bu);
    const std::uint64_t id = 0xdeadbeefcafef00dULL;
    EXPECT_EQ(traceIdFromHex(traceIdToHex(id)), id);

    // Malformed input means "absent", never an error.
    EXPECT_EQ(traceIdFromHex(""), 0u);
    EXPECT_EQ(traceIdFromHex("xyz"), 0u);
    EXPECT_EQ(traceIdFromHex("12 34"), 0u);
    EXPECT_EQ(traceIdFromHex("11112222333344445555"), 0u); // overflow
}

TEST(TraceContextTest, ObserveClockIsMonotonic)
{
    const std::uint64_t a = observeNowUs();
    const std::uint64_t b = observeNowUs();
    EXPECT_LE(a, b);
}

// ---------------------------------------------------------------- //
// Span collector + ScopedSpan
// ---------------------------------------------------------------- //

TEST(SpanCollectorTest, RingWrapDropsOldestAndCounts)
{
    SpanCollector collector;
    collector.setEnabled(true);
    collector.setCapacity(3);
    for (std::uint64_t i = 1; i <= 5; ++i) {
        SpanRecord span;
        span.traceId = 7;
        span.spanId = i;
        span.name = "s" + std::to_string(i);
        collector.record(std::move(span));
    }
    EXPECT_EQ(collector.recorded(), 5u);
    EXPECT_EQ(collector.dropped(), 2u);
    const std::vector<SpanRecord> kept = collector.snapshot();
    ASSERT_EQ(kept.size(), 3u);
    // Oldest first, and the two oldest spans were overwritten.
    EXPECT_EQ(kept[0].spanId, 3u);
    EXPECT_EQ(kept[1].spanId, 4u);
    EXPECT_EQ(kept[2].spanId, 5u);

    collector.clear();
    EXPECT_EQ(collector.recorded(), 0u);
    EXPECT_EQ(collector.dropped(), 0u);
    EXPECT_TRUE(collector.snapshot().empty());
}

TEST(SpanCollectorTest, SpansForTraceFilters)
{
    SpanCollector collector;
    collector.setEnabled(true);
    for (std::uint64_t trace : {1u, 2u, 1u}) {
        SpanRecord span;
        span.traceId = trace;
        span.spanId = newSpanId();
        collector.record(std::move(span));
    }
    EXPECT_EQ(collector.spansForTrace(1).size(), 2u);
    EXPECT_EQ(collector.spansForTrace(2).size(), 1u);
    EXPECT_TRUE(collector.spansForTrace(99).empty());
}

/** Record one finished span of @p name lasting endUs - startUs. */
void
recordSpan(SpanCollector &collector, const std::string &name,
           std::uint64_t startUs, std::uint64_t endUs)
{
    SpanRecord span;
    span.name = name;
    span.startUs = startUs;
    span.endUs = endUs;
    collector.record(std::move(span));
}

TEST(SpanCollectorTest, DisabledCollectorRecordsNoTotals)
{
    SpanCollector collector;
    ASSERT_FALSE(collector.enabled());
    {
        const ScopedSpan span("quiet", "test", collector);
    }
    EXPECT_TRUE(collector.totals().empty());
}

TEST(SpanCollectorTest, TotalsAggregatePerName)
{
    SpanCollector collector;
    collector.setEnabled(true);
    recordSpan(collector, "loop", 100, 102);
    recordSpan(collector, "loop", 200, 205);
    recordSpan(collector, "loop", 300, 303);
    {
        const ScopedSpan span("other", "test", collector);
    }
    const std::vector<SpanTotal> totals = collector.totals();
    ASSERT_EQ(totals.size(), 2u);
    EXPECT_EQ(totals[0].name, "loop"); // sorted by name
    EXPECT_EQ(totals[0].calls, 3u);
    EXPECT_NEAR(totals[0].seconds, 10e-6, 1e-12);
    EXPECT_NEAR(totals[0].maxSeconds, 5e-6, 1e-12);
    EXPECT_LE(totals[0].maxSeconds, totals[0].seconds);
    EXPECT_EQ(totals[1].name, "other");
    EXPECT_EQ(totals[1].calls, 1u);
    EXPECT_GE(totals[1].seconds, 0.0);
    EXPECT_LE(totals[1].maxSeconds, totals[1].seconds);

    collector.clear();
    EXPECT_TRUE(collector.totals().empty());
    EXPECT_TRUE(collector.enabled()); // clear keeps the enabled state
}

TEST(SpanCollectorTest, TotalsExportAsProfileGroup)
{
    SpanCollector collector;
    collector.setEnabled(true);
    {
        const ScopedSpan span("alpha.beta", "test", collector);
    }
    const SpanTotalsStats stats(collector);
    EXPECT_EQ(stats.group().name(), "profile");
    EXPECT_NE(stats.group().find("alpha.beta.calls"), nullptr);
    EXPECT_NE(stats.group().find("alpha.beta.seconds"), nullptr);
    EXPECT_NE(stats.group().find("alpha.beta.max_seconds"), nullptr);

    std::ostringstream json;
    stats.dumpJson(json);
    EXPECT_TRUE(jsonValid(json.str())) << json.str();
    EXPECT_NE(json.str().find("alpha.beta.calls"), std::string::npos);
}

TEST(SpanCollectorTest, TotalsCountSpansTheRingDropped)
{
    SpanCollector collector;
    collector.setEnabled(true);
    collector.setCapacity(2);
    for (int i = 0; i < 5; ++i) {
        const ScopedSpan span("lap", "test", collector);
    }
    EXPECT_EQ(collector.snapshot().size(), 2u);
    EXPECT_EQ(collector.dropped(), 3u);
    const std::vector<SpanTotal> totals = collector.totals();
    ASSERT_EQ(totals.size(), 1u);
    EXPECT_EQ(totals[0].calls, 5u);
}

TEST(SpanCollectorTest, TotalsSurviveConcurrentRecorders)
{
    SpanCollector collector;
    collector.setEnabled(true);
    std::atomic<int> running{4};
    std::vector<std::thread> recorders;
    for (int t = 0; t < 4; ++t) {
        recorders.emplace_back([&] {
            for (int i = 0; i < 1000; ++i) {
                const ScopedSpan span("hammer", "test", collector);
            }
            running.fetch_sub(1);
        });
    }
    // Read the totals while the recorders write them.
    while (running.load() > 0)
        (void)collector.totals();
    for (std::thread &recorder : recorders)
        recorder.join();
    const std::vector<SpanTotal> totals = collector.totals();
    ASSERT_EQ(totals.size(), 1u);
    EXPECT_EQ(totals[0].calls, 4000u);
    EXPECT_LE(totals[0].maxSeconds, totals[0].seconds);
}

TEST(ScopedSpanTest, DisabledCollectorRecordsNothing)
{
    SpanCollector collector; // default: disabled
    {
        const ScopedSpan span("noop", "test", collector);
        EXPECT_FALSE(span.context().valid());
    }
    EXPECT_EQ(collector.recorded(), 0u);
}

TEST(ScopedSpanTest, NestedSpansFormOneTree)
{
    SpanCollector collector;
    collector.setEnabled(true);
    setCurrentTraceContext(TraceContext{});
    {
        const ScopedSpan root("root", "test", collector);
        ASSERT_TRUE(root.context().valid());
        const ScopedSpan child("child", "test", collector);
        EXPECT_EQ(child.context().traceId, root.context().traceId);
        {
            const ScopedSpan leaf("leaf", "test", collector);
            EXPECT_EQ(leaf.context().traceId,
                      root.context().traceId);
        }
    }
    const std::vector<SpanRecord> spans = collector.snapshot();
    ASSERT_EQ(spans.size(), 3u);
    // Destruction order: leaf, child, root.
    const SpanRecord &leaf = spans[0];
    const SpanRecord &child = spans[1];
    const SpanRecord &root = spans[2];
    EXPECT_EQ(root.parentSpanId, 0u);
    EXPECT_EQ(child.parentSpanId, root.spanId);
    EXPECT_EQ(leaf.parentSpanId, child.spanId);
    EXPECT_EQ(leaf.traceId, root.traceId);
    EXPECT_LE(root.startUs, child.startUs);
    EXPECT_LE(child.endUs, root.endUs);
}

TEST(ScopedSpanTest, PoolSubmitInheritsSubmitterContext)
{
    SpanCollector &collector = SpanCollector::global();
    collector.clear();
    collector.setEnabled(true);
    setCurrentTraceContext(TraceContext{});

    ThreadPool pool(4);
    std::uint64_t rootTrace = 0;
    {
        const ScopedSpan root("submit.root", "test");
        rootTrace = root.context().traceId;
        pool.submit([] {
             const ScopedSpan task("submit.task", "test");
         }).get();
    }
    collector.setEnabled(false);

    const std::vector<SpanRecord> spans =
        collector.spansForTrace(rootTrace);
    ASSERT_EQ(spans.size(), 2u);
    // The task span joined the submitter's trace and parents under
    // the submitting span even though it ran on another lane.
    EXPECT_EQ(spans[0].name, "submit.task");
    EXPECT_EQ(spans[1].name, "submit.root");
    EXPECT_EQ(spans[0].parentSpanId, spans[1].spanId);
    collector.clear();
}

TEST(ScopedSpanTest, ParallelForBodiesInheritCallerContext)
{
    SpanCollector &collector = SpanCollector::global();
    collector.clear();
    collector.setEnabled(true);
    setCurrentTraceContext(TraceContext{});

    ThreadPool pool(4);
    std::uint64_t rootTrace = 0;
    {
        const ScopedSpan root("pfor.root", "test");
        rootTrace = root.context().traceId;
        pool.parallelFor(8, [](std::size_t) {
            const ScopedSpan body("pfor.body", "test");
        });
    }
    collector.setEnabled(false);

    const std::vector<SpanRecord> spans =
        collector.spansForTrace(rootTrace);
    // 8 bodies + the root, all in one trace regardless of lanes.
    ASSERT_EQ(spans.size(), 9u);
    std::uint64_t rootSpanId = 0;
    for (const SpanRecord &span : spans)
        if (span.name == "pfor.root")
            rootSpanId = span.spanId;
    ASSERT_NE(rootSpanId, 0u);
    for (const SpanRecord &span : spans) {
        if (span.name == "pfor.body") {
            EXPECT_EQ(span.parentSpanId, rootSpanId);
        }
    }
    collector.clear();
}

TEST(SpanRecordTest, WriteJsonIsValidAndHex)
{
    SpanRecord span;
    span.traceId = 0xabc;
    span.spanId = 0x1;
    span.parentSpanId = 0;
    span.name = "study.encode";
    span.track = "study";
    span.startUs = 10;
    span.endUs = 42;
    std::ostringstream out;
    span.writeJson(out);
    EXPECT_TRUE(jsonValid(out.str())) << out.str();
    JsonValue parsed;
    ASSERT_TRUE(parseJson(out.str(), parsed));
    EXPECT_EQ(parsed.stringOr("trace_id", ""), "abc");
    EXPECT_EQ(parsed.stringOr("name", ""), "study.encode");
    EXPECT_DOUBLE_EQ(parsed.numberOr("end_us", 0), 42);
}

// ---------------------------------------------------------------- //
// Flight recorder
// ---------------------------------------------------------------- //

TEST(FlightRecorderTest, RingRetainsNewestAndDumpIsValidJson)
{
    FlightRecorder recorder;
    recorder.setCapacity(2);
    recorder.record("{\"n\": 1}");
    recorder.record("{\"n\": 2}");
    recorder.record("{\"n\": 3}");
    EXPECT_EQ(recorder.recorded(), 3u);
    EXPECT_EQ(recorder.dropped(), 1u);
    const std::vector<std::string> kept = recorder.snapshot();
    ASSERT_EQ(kept.size(), 2u);
    EXPECT_EQ(kept[0], "{\"n\": 2}");
    EXPECT_EQ(kept[1], "{\"n\": 3}");

    std::ostringstream out;
    recorder.dump(out);
    EXPECT_TRUE(jsonValid(out.str())) << out.str();
    JsonValue doc;
    ASSERT_TRUE(parseJson(out.str(), doc));
    const JsonValue *events = doc.find("wide_events");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    EXPECT_EQ(events->elements.size(), 2u);
    EXPECT_DOUBLE_EQ(doc.numberOr("wide_events_dropped", -1), 1);
    EXPECT_NE(doc.find("spans"), nullptr);
}

// ---------------------------------------------------------------- //
// Prometheus writer + validator
// ---------------------------------------------------------------- //

TEST(PrometheusTest, WriterOutputPassesValidator)
{
    StatGroup group("prom_test");
    DistributionStat dist(group, "lat", "latency", 0, 1000, 10);
    for (int i = 0; i < 100; ++i)
        dist.sample(i * 13 % 1200); // some overflow on purpose

    PrometheusWriter writer;
    writer.counter("copernicus_test_requests_total", "Requests.",
                   {{{{"endpoint", "ping"}}, 12},
                    {{{"endpoint", "run_study"}}, 3}});
    writer.gauge("copernicus_test_queue_depth", "Queue depth.",
                 {{{}, 2}});
    writer.histogram("copernicus_test_latency_seconds", "Latency.",
                     {{{{"endpoint", "ping"}}, dist.snapshot()}},
                     1e-6);
    const std::string text = writer.text();

    std::string error;
    EXPECT_TRUE(validatePrometheusText(text, error))
        << error << "\n" << text;
    // Spot-check shape: cumulative buckets and the terminal +Inf.
    EXPECT_NE(text.find("le=\"+Inf\""), std::string::npos);
    EXPECT_NE(text.find("copernicus_test_latency_seconds_count"),
              std::string::npos);
    EXPECT_NE(text.find("# TYPE copernicus_test_requests_total "
                        "counter"),
              std::string::npos);
}

TEST(PrometheusTest, HistogramExportsExactOneTwoFiveBuckets)
{
    // The serve latency shape: 1000 bins of 100 us over [0, 100 ms).
    StatGroup group("prom_ladder");
    DistributionStat dist(group, "lat", "latency", 0, 100000, 1000);
    dist.sample(-3); // underflow
    for (int i = 0; i < 5000; ++i)
        dist.sample((i * 7919) % 120000); // across the range, and past it
    const DistributionStat::Snapshot snap = dist.snapshot();
    const double scale = 1e-6;

    PrometheusWriter writer;
    writer.histogram("copernicus_test_ladder_seconds", "Latency.",
                     {{{{"endpoint", "advise"}}, snap}}, scale);
    const std::string text = writer.text();
    std::string error;
    EXPECT_TRUE(validatePrometheusText(text, error)) << error;

    // Every finite bound is an exact bin edge: its count must equal a
    // recount of the snapshot's bins up to that edge.
    const double width = (snap.hi - snap.lo) / 1000.0;
    std::vector<std::size_t> edges;
    std::istringstream lines(text);
    std::string line;
    const std::string prefix =
        "copernicus_test_ladder_seconds_bucket{endpoint=\"advise\",le=\"";
    while (std::getline(lines, line)) {
        if (line.rfind(prefix, 0) != 0)
            continue;
        const std::size_t close = line.find('"', prefix.size());
        ASSERT_NE(close, std::string::npos) << line;
        const std::string le = line.substr(prefix.size(),
                                           close - prefix.size());
        const auto count = std::stoull(line.substr(close + 3));
        if (le == "+Inf") {
            EXPECT_EQ(count, snap.count);
            continue;
        }
        const double bound = std::stod(le);
        std::uint64_t recount = snap.underflow;
        std::size_t edge = 0;
        for (std::size_t b = 0; b < snap.bins.size(); ++b) {
            if ((snap.lo + static_cast<double>(b + 1) * width) * scale >
                bound)
                break;
            recount += snap.bins[b];
            edge = b + 1;
        }
        EXPECT_EQ(count, recount) << line;
        edges.push_back(edge);
    }
    EXPECT_EQ(edges, (std::vector<std::size_t>{1, 2, 5, 10, 20, 50, 100,
                                                200, 500, 1000}));
}

TEST(PrometheusTest, LabelValuesAreEscaped)
{
    PrometheusWriter writer;
    writer.counter("copernicus_test_esc_total", "Escapes.",
                   {{{{"path", "a\"b\\c\nd"}}, 1}});
    const std::string text = writer.text();
    std::string error;
    EXPECT_TRUE(validatePrometheusText(text, error)) << error;
    EXPECT_NE(text.find("a\\\"b\\\\c\\nd"), std::string::npos)
        << text;
}

TEST(PrometheusTest, ValidatorRejectsInterleavedFamilies)
{
    const std::string bad = "# TYPE a_total counter\n"
                            "a_total 1\n"
                            "# TYPE b_total counter\n"
                            "b_total 1\n"
                            "a_total{x=\"y\"} 2\n";
    std::string error;
    EXPECT_FALSE(validatePrometheusText(bad, error));
    EXPECT_FALSE(error.empty());
}

TEST(PrometheusTest, ValidatorRejectsNonCumulativeHistogram)
{
    const std::string bad =
        "# TYPE h histogram\n"
        "h_bucket{le=\"1\"} 5\n"
        "h_bucket{le=\"2\"} 3\n" // decreasing: not cumulative
        "h_bucket{le=\"+Inf\"} 5\n"
        "h_sum 9\n"
        "h_count 5\n";
    std::string error;
    EXPECT_FALSE(validatePrometheusText(bad, error));
}

TEST(PrometheusTest, ValidatorRejectsInfCountMismatch)
{
    const std::string bad = "# TYPE h histogram\n"
                            "h_bucket{le=\"1\"} 2\n"
                            "h_bucket{le=\"+Inf\"} 5\n"
                            "h_sum 9\n"
                            "h_count 4\n"; // != +Inf bucket
    std::string error;
    EXPECT_FALSE(validatePrometheusText(bad, error));
}

TEST(PrometheusTest, ValidatorRejectsSamplesBeforeType)
{
    const std::string bad = "a_total 1\n"
                            "# TYPE a_total counter\n"
                            "a_total 2\n";
    std::string error;
    EXPECT_FALSE(validatePrometheusText(bad, error));
}

// ---------------------------------------------------------------- //
// DistributionStat snapshot / merge
// ---------------------------------------------------------------- //

TEST(DistSnapshotTest, SnapshotMatchesLiveStat)
{
    StatGroup group("snap_test");
    DistributionStat dist(group, "d", "x", 0, 100, 10);
    for (int i = 0; i < 1000; ++i)
        dist.sample(i % 120 - 5); // exercises under- and overflow

    const DistributionStat::Snapshot snap = dist.snapshot();
    EXPECT_EQ(snap.count, dist.samples());
    EXPECT_DOUBLE_EQ(snap.min, dist.minSample());
    EXPECT_DOUBLE_EQ(snap.max, dist.maxSample());
    EXPECT_DOUBLE_EQ(snap.sum, dist.sumSamples());
    for (double p : {50.0, 95.0, 99.0})
        EXPECT_DOUBLE_EQ(snap.percentile(p), dist.percentile(p));

    // The snapshot is detached: new samples don't bleed into it.
    const std::uint64_t before = snap.count;
    dist.sample(50);
    EXPECT_EQ(snap.count, before);
}

TEST(DistSnapshotTest, MergeFoldsCountsAndExtremes)
{
    StatGroup group("merge_test");
    DistributionStat a(group, "a", "x", 0, 100, 10);
    DistributionStat b(group, "b", "x", 0, 100, 10);
    for (int i = 0; i < 50; ++i)
        a.sample(10);
    for (int i = 0; i < 50; ++i)
        b.sample(90);

    DistributionStat::Snapshot merged = a.snapshot();
    merged.merge(b.snapshot());
    EXPECT_EQ(merged.count, 100u);
    EXPECT_DOUBLE_EQ(merged.min, 10);
    EXPECT_DOUBLE_EQ(merged.max, 90);
    EXPECT_DOUBLE_EQ(merged.sum, 50 * 10.0 + 50 * 90.0);
    // Half the mass at ~10, half at ~90: the median sits in the low
    // half's bucket and p99 in the high half's.
    EXPECT_LT(merged.percentile(40), 50);
    EXPECT_GT(merged.percentile(60), 50);
}

TEST(DistSnapshotTest, MergeRejectsMismatchedBuckets)
{
    StatGroup group("merge_bad_test");
    DistributionStat a(group, "a", "x", 0, 100, 10);
    DistributionStat b(group, "b", "x", 0, 200, 10);
    DistributionStat::Snapshot snap = a.snapshot();
    EXPECT_THROW(snap.merge(b.snapshot()), FatalError);
}

TEST(DistSnapshotTest, EmptySnapshotPercentileIsNaN)
{
    StatGroup group("empty_snap_test");
    DistributionStat dist(group, "d", "x", 0, 100, 10);
    EXPECT_TRUE(std::isnan(dist.snapshot().percentile(50)));
}

/**
 * The satellite's race test: request threads hammer sample() while a
 * scraper thread snapshots and computes percentiles and a drain
 * thread reads samples()/sumSamples(). Run under
 * -DCOPERNICUS_SANITIZE=thread this proves scrape and flush can never
 * race a sample; in a plain build it still checks the final tallies.
 */
TEST(DistSnapshotTest, ConcurrentSampleAndSnapshotHammer)
{
    StatGroup group("hammer_test");
    DistributionStat dist(group, "d", "x", 0, 1000, 50);

    constexpr int kWriters = 4;
    constexpr int kSamplesPerWriter = 5000;
    std::atomic<bool> stop{false};

    std::vector<std::thread> writers;
    writers.reserve(kWriters);
    for (int w = 0; w < kWriters; ++w) {
        writers.emplace_back([&dist, w] {
            for (int i = 0; i < kSamplesPerWriter; ++i)
                dist.sample((w * 31 + i * 7) % 1200);
        });
    }
    std::thread scraper([&dist, &stop] {
        while (!stop.load()) {
            const DistributionStat::Snapshot snap = dist.snapshot();
            if (snap.count > 0) {
                const double p99 = snap.percentile(99);
                ASSERT_GE(p99, 0);
            }
        }
    });
    std::thread drainer([&dist, &stop] {
        while (!stop.load()) {
            (void)dist.samples();
            (void)dist.sumSamples();
        }
    });

    for (std::thread &t : writers)
        t.join();
    stop.store(true);
    scraper.join();
    drainer.join();

    EXPECT_EQ(dist.samples(),
              static_cast<std::uint64_t>(kWriters) *
                  kSamplesPerWriter);
    const DistributionStat::Snapshot snap = dist.snapshot();
    EXPECT_EQ(snap.count, dist.samples());
}

} // namespace
} // namespace copernicus
