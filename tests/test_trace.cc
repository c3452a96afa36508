/**
 * @file
 * Tests for the trace subsystem: TraceWriter's Chrome trace_event
 * output and the TraceSink plumbing through the pipelines. Spans and
 * their totals (the host profile) are tested in test_observe.cc.
 */

#include <gtest/gtest.h>

#include <map>
#include <sstream>
#include <utility>

#include "common/json.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "pipeline/event_sim.hh"
#include "pipeline/parallel_pipeline.hh"
#include "trace/trace_writer.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

Partitioning
sampleParts(double density = 0.08)
{
    Rng rng(21);
    return partition(randomMatrix(128, density, rng), 16);
}

TEST(TraceWriterTest, EmitsValidJson)
{
    TraceWriter writer;
    runEventSim(sampleParts(), FormatKind::CSR, HlsConfig(),
                defaultRegistry(), 2, &writer);
    ASSERT_GT(writer.eventCount(), 0u);

    std::ostringstream out;
    writer.write(out);
    const std::string doc = out.str();
    EXPECT_TRUE(jsonValid(doc)) << doc.substr(0, 400);
    EXPECT_NE(doc.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(doc.find("\"displayTimeUnit\""), std::string::npos);
}

TEST(TraceWriterTest, TrackBusyMatchesEventSimBusyTotals)
{
    for (FormatKind kind : {FormatKind::CSR, FormatKind::BITMAP,
                            FormatKind::DIA}) {
        TraceWriter writer;
        const auto result =
            runEventSim(sampleParts(), kind, HlsConfig(),
                        defaultRegistry(), 2, &writer);
        // Exact, not just within the 1% acceptance bound: the writer
        // records the very same intervals the simulator accumulates.
        EXPECT_EQ(writer.trackBusy("read"), result.readBusy);
        EXPECT_EQ(writer.trackBusy("compute"), result.computeBusy);
        EXPECT_EQ(writer.trackBusy("write"), result.writeBusy);
    }
}

TEST(TraceWriterTest, EventsNestPerTrack)
{
    TraceWriter writer;
    runEventSim(sampleParts(), FormatKind::COO, HlsConfig(),
                defaultRegistry(), 2, &writer);

    // Within one (pid, track) pair the 'X' events must be disjoint and
    // in nondecreasing start order — one lane per pipeline stage.
    std::map<std::pair<int, std::string>, Cycles> lane_end;
    for (const auto &ev : writer.events()) {
        if (ev.phase != 'X')
            continue;
        auto [it, fresh] =
            lane_end.try_emplace({ev.pid, ev.track}, Cycles(0));
        EXPECT_GE(ev.ts, it->second)
            << "overlap on track " << ev.track;
        it->second = ev.ts + ev.dur;
    }
    EXPECT_GE(lane_end.size(), 3u); // read / compute / write lanes
}

TEST(TraceWriterTest, CounterTimestampsAreMonotonePerCounter)
{
    TraceWriter writer;
    runEventSim(sampleParts(), FormatKind::CSR, HlsConfig(),
                defaultRegistry(), 2, &writer);

    std::map<std::pair<int, std::string>, Cycles> last_ts;
    std::size_t counters = 0;
    for (const auto &ev : writer.events()) {
        if (ev.phase != 'C')
            continue;
        ++counters;
        auto [it, fresh] =
            last_ts.try_emplace({ev.pid, ev.name}, Cycles(0));
        EXPECT_GE(ev.ts, it->second) << "counter " << ev.name;
        it->second = ev.ts;
    }
    EXPECT_GT(counters, 0u);
}

TEST(TraceWriterTest, SinkDoesNotPerturbSimulation)
{
    const auto parts = sampleParts();
    for (FormatKind kind : {FormatKind::CSR, FormatKind::ELL}) {
        const auto bare = runEventSim(parts, kind);
        TraceWriter writer;
        const auto traced = runEventSim(parts, kind, HlsConfig(),
                                        defaultRegistry(), 2, &writer);

        // Bit-identical, field by field.
        EXPECT_EQ(bare.totalCycles, traced.totalCycles);
        EXPECT_EQ(bare.readBusy, traced.readBusy);
        EXPECT_EQ(bare.computeBusy, traced.computeBusy);
        EXPECT_EQ(bare.writeBusy, traced.writeBusy);
        EXPECT_EQ(bare.readStall, traced.readStall);
        EXPECT_EQ(bare.computeStall, traced.computeStall);
        ASSERT_EQ(bare.schedule.size(), traced.schedule.size());
        for (std::size_t i = 0; i < bare.schedule.size(); ++i) {
            EXPECT_EQ(bare.schedule[i].readStart,
                      traced.schedule[i].readStart);
            EXPECT_EQ(bare.schedule[i].readEnd,
                      traced.schedule[i].readEnd);
            EXPECT_EQ(bare.schedule[i].computeStart,
                      traced.schedule[i].computeStart);
            EXPECT_EQ(bare.schedule[i].computeEnd,
                      traced.schedule[i].computeEnd);
            EXPECT_EQ(bare.schedule[i].writeStart,
                      traced.schedule[i].writeStart);
            EXPECT_EQ(bare.schedule[i].writeEnd,
                      traced.schedule[i].writeEnd);
        }
    }
}

TEST(TraceWriterTest, GlobalSinkFallback)
{
    const auto parts = sampleParts();
    TraceWriter writer;
    setActiveTraceSink(&writer);
    runEventSim(parts, FormatKind::CSR);
    setActiveTraceSink(nullptr);
    EXPECT_GT(writer.eventCount(), 0u);

    // With the global sink cleared, no further events are recorded.
    const std::size_t before = writer.eventCount();
    runEventSim(parts, FormatKind::CSR);
    EXPECT_EQ(writer.eventCount(), before);
}

TEST(TraceWriterTest, ParallelPipelineEmitsLaneEvents)
{
    const auto parts = sampleParts();
    TraceWriter writer;
    runParallel(parts, FormatKind::CSR, 4, ScheduleKind::RoundRobin,
                HlsConfig(), defaultRegistry(), &writer);

    std::size_t lanes = 0;
    for (const auto &ev : writer.events())
        if (ev.phase == 'X' && ev.track.rfind("pe", 0) == 0)
            ++lanes;
    EXPECT_GT(lanes, 0u);

    std::ostringstream out;
    writer.write(out);
    EXPECT_TRUE(jsonValid(out.str()));
}

TEST(TraceWriterTest, BackwardsDurationIsRejected)
{
    TraceWriter writer;
    EXPECT_THROW(writer.durationEvent("read", "p0", 10, 5),
                 PanicError);
}

TEST(JsonValidTest, AcceptsWellFormedDocuments)
{
    EXPECT_TRUE(jsonValid("{}"));
    EXPECT_TRUE(jsonValid("[]"));
    EXPECT_TRUE(jsonValid("{\"a\": [1, 2.5, -3e4], \"b\": null}"));
    EXPECT_TRUE(jsonValid("{\"s\": \"q\\\"uote\\u0041\"}"));
    EXPECT_TRUE(jsonValid("  [true, false]  "));
}

TEST(JsonValidTest, RejectsMalformedDocuments)
{
    EXPECT_FALSE(jsonValid(""));
    EXPECT_FALSE(jsonValid("{"));
    EXPECT_FALSE(jsonValid("{\"a\": 1,}"));
    EXPECT_FALSE(jsonValid("{\"a\" 1}"));
    EXPECT_FALSE(jsonValid("[1 2]"));
    EXPECT_FALSE(jsonValid("{\"a\": 01}"));
    EXPECT_FALSE(jsonValid("\"unterminated"));
    EXPECT_FALSE(jsonValid("{} extra"));
    EXPECT_FALSE(jsonValid("{\"bad\": \"\\x\"}"));
}

} // namespace
} // namespace copernicus
