/**
 * @file
 * serve_mix: a closed loop against an in-process daemon.
 *
 * One Server runs on a private Unix socket with its default
 * observability plane on and its registry lint gate at start-up.
 * One client connection per core, half NDJSON and half CPB1, each send
 * a fixed cyclic mix of advise (rmat n = 4096), plan_formats (random
 * n = 2048) and run_study (band / stencil2d / random at n ~ 1024),
 * waiting for each reply before sending the next. Every third request
 * repeats a spec from a small warm set, so the result memo and the
 * encode cache hit; the rest are specs not sent before in the run and
 * miss. The endpoint mix and the repeat share are assumptions: the
 * repository holds no record of real traffic to derive them from, so
 * the per-endpoint medians, split into repeats and fresh requests, are
 * the figures a claim should rest on. An untimed warm-up sends the
 * warm set once (its payloads are the reference every repeat must
 * match byte for byte) and then runs the loop briefly, because daemon
 * users run warm.
 *
 * The traced run splits its time three ways: an untraced loop (the
 * overhead baseline), a traced loop whose requests are matched by
 * trace id to the server's wide events from dump_flightrec (queue wait,
 * handler time, and the wire time: client latency minus both), and
 * direct in-process calls of the work behind each endpoint, whose
 * ledger gives trace.layer_sum_over_wall.
 */

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "common.hh"

#include "common/json.hh"
#include "common/thread_pool.hh"
#include "core/advisor.hh"
#include "core/scheduler.hh"
#include "core/study.hh"
#include "formats/encode_cache.hh"
#include "matrix/partitioner.hh"
#include "matrix/stats.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

using namespace copernicus;

namespace perfbench {

namespace {

enum class Op { Advise, Plan, Study };

const char *
opName(Op op)
{
    switch (op) {
      case Op::Advise: return "advise";
      case Op::Plan: return "plan_formats";
      case Op::Study: return "run_study";
    }
    return "";
}

/**
 * The fixed per-client cycle: 6 advise, 2 plan_formats, 2 run_study.
 * An assumed mix, not one measured from traffic.
 */
constexpr Op mixCycle[] = {Op::Advise, Op::Plan,   Op::Advise, Op::Study,
                           Op::Advise, Op::Advise, Op::Plan,   Op::Advise,
                           Op::Study,  Op::Advise};
constexpr std::size_t mixLength = sizeof(mixCycle) / sizeof(mixCycle[0]);

/** Specs per endpoint in the warm (repeated) set. */
constexpr std::uint64_t warmSpecs = 3;

/**
 * The matrix of request seed @p s. Distinct seeds give distinct
 * matrices: the stencil, which has no random content, takes both axes
 * from the seed, distinct over any 3072 consecutive seeds.
 */
std::string
matrixSpec(Op op, std::uint64_t s)
{
    switch (op) {
      case Op::Advise:
        return "{\"kind\": \"rmat\", \"n\": 4096, \"edges\": 16384, "
               "\"seed\": " + std::to_string(s) + "}";
      case Op::Plan:
        return "{\"kind\": \"random\", \"n\": 2048, \"density\": 0.001, "
               "\"seed\": " + std::to_string(s) + "}";
      case Op::Study:
        switch (s % 3) {
          case 0:
            return "{\"kind\": \"band\", \"n\": 1024, \"width\": " +
                   std::to_string(4 + (s / 3) % 4 * 4) +
                   ", \"seed\": " + std::to_string(s) + "}";
          case 1:
            return "{\"kind\": \"stencil2d\", \"nx\": " +
                   std::to_string(16 + (s / 3) % 32) + ", \"ny\": " +
                   std::to_string(16 + (s / 96) % 32) + "}";
          default:
            return "{\"kind\": \"random\", \"n\": 1024, \"density\": "
                   "0.002, \"seed\": " + std::to_string(s) + "}";
        }
    }
    return "";
}

std::string
requestParams(Op op, std::uint64_t s)
{
    const std::string spec = "{\"matrix\": " + matrixSpec(op, s);
    switch (op) {
      case Op::Advise:
        return spec + ", \"goal\": \"" +
               (s % 2 == 0 ? "latency" : "balanced") + "\"}";
      case Op::Plan:
        return spec + ", \"partition_size\": 16}";
      case Op::Study:
        return spec + "}";
    }
    return "";
}

/** Digest of a parsed JSON value (structure, keys, values). */
void
hashJson(Digest &d, const JsonValue &v)
{
    d.value(static_cast<int>(v.kind));
    switch (v.kind) {
      case JsonValue::Kind::Null: break;
      case JsonValue::Kind::Bool: d.value(v.boolean); break;
      case JsonValue::Kind::Number: d.value(v.number); break;
      case JsonValue::Kind::String: d.text(v.text); break;
      case JsonValue::Kind::Array:
        d.value(v.elements.size());
        for (const JsonValue &e : v.elements)
            hashJson(d, e);
        break;
      case JsonValue::Kind::Object:
        d.value(v.members.size());
        for (const auto &[key, member] : v.members) {
            d.text(key);
            hashJson(d, member);
        }
        break;
    }
}

/** Shape check of a fresh (unreferenced) result payload. */
bool
plausible(Op op, const JsonValue &result)
{
    switch (op) {
      case Op::Advise:
        return !result.stringOr("format", "").empty();
      case Op::Plan:
        return result.numberOr("tiles", 0) > 0;
      case Op::Study:
        // 8 paper formats x p in {8, 16, 32}.
        return result.numberOr("rows", 0) == 24;
    }
    return false;
}

struct Sample
{
    Op op = Op::Advise;
    double ms = 0;
    bool ok = false;
    bool repeat = false;
    std::string what;
    std::string traceId;
};

/** The daemon plus the warm set's reference payloads. */
struct Mix
{
    std::string socketPath;
    std::uint64_t seed = 1;
    unsigned clients = 4;
    /** Warm-set params -> digest of its reference result payload. */
    std::unordered_map<std::string, std::string> reference;
    std::atomic<std::uint64_t> freshSeed{0};
};

ServeClient
connectClient(const Mix &mix, unsigned c)
{
    ServeClient client = ServeClient::connectUnix(mix.socketPath);
    client.setReceiveTimeoutMs(60000);
    if (c % 2 == 1)
        client.enableBinaryFraming();
    return client;
}

/** One request; fills everything but the latency's context. */
Sample
send(ServeClient &client, Op op, const std::string &params,
      const std::string *reference)
{
    Sample s;
    s.op = op;
    const Clock::time_point start = Clock::now();
    try {
        const JsonValue response = client.call(opName(op), params);
        s.ms = secondsSince(start) * 1000;
        s.traceId = response.stringOr("trace_id", "");
        const JsonValue *result = response.find("result");
        if (!response.boolOr("ok", false) || result == nullptr) {
            s.what = std::string(opName(op)) + " refused: " +
                     response.stringOr("error", "?");
            return s;
        }
        Digest d;
        hashJson(d, *result);
        if (reference != nullptr && d.hex() != *reference)
            s.what = std::string(opName(op)) +
                     " repeat payload differs from its reference";
        else if (reference == nullptr && !plausible(op, *result))
            s.what = std::string(opName(op)) + " payload malformed";
        else
            s.ok = true;
    } catch (const std::exception &e) {
        s.ms = secondsSince(start) * 1000;
        s.what = e.what();
    }
    return s;
}

/** Closed loop on every client until @p seconds elapse. */
std::vector<Sample>
closedLoop(Mix &mix, double seconds)
{
    std::vector<Sample> samples;
    std::mutex samplesMutex;
    const Clock::time_point start = Clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < mix.clients; ++c) {
        threads.emplace_back([&, c] {
            std::vector<Sample> mine;
            try {
                ServeClient client = connectClient(mix, c);
                for (std::size_t i = 0; secondsSince(start) < seconds;
                     ++i) {
                    const Op op = mixCycle[(i + c * 3) % mixLength];
                    const bool repeat = i % 3 == 0;
                    const std::uint64_t s =
                        repeat ? mix.seed * 1000 + (i / 3 + c) % warmSpecs
                               : mix.seed * 1000 + 100 +
                                     mix.freshSeed.fetch_add(1);
                    const std::string params = requestParams(op, s);
                    const auto ref = mix.reference.find(params);
                    mine.push_back(send(
                        client, op, params,
                        repeat && ref != mix.reference.end() ? &ref->second
                                                             : nullptr));
                    mine.back().repeat = repeat;
                }
            } catch (const std::exception &e) {
                Sample failed;
                failed.what = e.what();
                mine.push_back(failed);
            }
            const std::lock_guard<std::mutex> lock(samplesMutex);
            samples.insert(samples.end(), mine.begin(), mine.end());
        });
    }
    for (std::thread &t : threads)
        t.join();
    return samples;
}

/** Send the warm set once, serially, recording reference payloads. */
Digest
warmUp(Mix &mix, Report &report)
{
    ServeClient client = connectClient(mix, 0);
    Digest digest;
    for (Op op : {Op::Advise, Op::Plan, Op::Study}) {
        for (std::uint64_t k = 0; k < warmSpecs; ++k) {
            const std::string params =
                requestParams(op, mix.seed * 1000 + k);
            const JsonValue response = client.call(opName(op), params);
            const JsonValue *result = response.find("result");
            const bool ok = response.boolOr("ok", false) &&
                            result != nullptr && plausible(op, *result);
            report.operation(ok, std::string("warm-up ") + opName(op) +
                                     " failed");
            if (!ok)
                continue;
            Digest d;
            hashJson(d, *result);
            mix.reference[params] = d.hex();
            digest.text(params);
            digest.text(d.hex());
        }
    }
    return digest;
}

std::unique_ptr<Server>
startServer(const std::string &socketPath)
{
    ServeOptions options;
    options.socketPath = socketPath;
    auto server = std::make_unique<Server>(std::move(options));
    server->start();
    return server;
}

void
stopServer(Server &server)
{
    server.beginShutdown();
    server.waitDrained();
}

/** Latencies of the ok samples, of one endpoint and kind if given. */
std::vector<double>
latencies(const std::vector<Sample> &samples, const Op *only = nullptr,
          std::optional<bool> repeat = std::nullopt)
{
    std::vector<double> ms;
    for (const Sample &s : samples)
        if (s.ok && (only == nullptr || s.op == *only) &&
            (!repeat || s.repeat == *repeat))
            ms.push_back(s.ms);
    return ms;
}

void
countOperations(Report &report, const std::vector<Sample> &samples)
{
    for (const Sample &s : samples)
        report.operation(s.ok, s.what);
}

double
memoCounter(ServeClient &client, const char *name)
{
    const JsonValue stats = client.call("stats");
    const JsonValue *result = stats.find("result");
    const JsonValue *memo = result ? result->find("memo") : nullptr;
    return memo ? memo->numberOr(name, 0) : 0;
}

/** Traced loop: wide-event split, memo and pool counters. */
std::vector<Sample>
tracedLoop(Mix &mix, double seconds, LayerValues &values, Report &report)
{
    ServeClient probe = connectClient(mix, 0);
    const double memoHits0 = memoCounter(probe, "hits");
    const double memoMisses0 = memoCounter(probe, "misses");
    const EncodeCache::Stats cache0 = EncodeCache::global().stats();
    ThreadPool::drainLaneSpans();
    ThreadPool::setLaneRecording(true);
    const Clock::time_point start = Clock::now();
    const std::vector<Sample> samples = closedLoop(mix, seconds);
    const double wall = secondsSince(start);
    ThreadPool::setLaneRecording(false);
    const auto lanes = ThreadPool::drainLaneSpans();
    const EncodeCache::Stats cache1 = EncodeCache::global().stats();
    const double memoHits = memoCounter(probe, "hits") - memoHits0;
    const double memoMisses = memoCounter(probe, "misses") - memoMisses0;
    countOperations(report, samples);

    // Wide events of the loop's requests, matched by trace id.
    const JsonValue dump = probe.call("dump_flightrec");
    const JsonValue *result = dump.find("result");
    const JsonValue *events = result ? result->find("wide_events") : nullptr;
    struct ServerSide
    {
        double queueMs;
        double handlerMs;
    };
    std::unordered_map<std::string, ServerSide> byTrace;
    if (events != nullptr) {
        for (const JsonValue &e : events->elements)
            byTrace[e.stringOr("trace_id", "")] = {
                e.numberOr("queue_wait_us", 0) / 1000,
                e.numberOr("latency_us", 0) / 1000};
    }
    std::vector<double> queue;
    std::vector<double> handler;
    std::vector<double> wire;
    std::size_t rejected = 0;
    for (const Sample &s : samples) {
        if (s.what.find("queue_full") != std::string::npos)
            ++rejected;
        const auto it = byTrace.find(s.traceId);
        if (!s.ok || it == byTrace.end())
            continue;
        const double w = s.ms - it->second.queueMs - it->second.handlerMs;
        queue.push_back(it->second.queueMs);
        handler.push_back(it->second.handlerMs);
        wire.push_back(w);
    }
    values["serve.queue_wait_ms"] = median(queue);
    values["serve.handler_ms"] = median(handler);
    values["serve.wire_ms"] = median(wire);
    values["serve.rejected"] = static_cast<double>(rejected);
    values["serve.memo.hits"] = memoHits;
    values["serve.memo.hit_ratio"] =
        memoHits + memoMisses > 0 ? memoHits / (memoHits + memoMisses) : 0;
    for (Op op : {Op::Advise, Op::Plan, Op::Study}) {
        const std::string prefix = std::string("serve.") + opName(op);
        values[prefix + "_p50_ms"] = median(latencies(samples, &op));
        values[prefix + "_repeat_p50_ms"] =
            median(latencies(samples, &op, true));
        values[prefix + "_fresh_p50_ms"] =
            median(latencies(samples, &op, false));
    }
    const double hits = static_cast<double>(cache1.hits - cache0.hits);
    const double misses =
        static_cast<double>(cache1.misses - cache0.misses);
    values["formats.encode_cache.hits"] = hits;
    values["formats.encode_cache.misses"] = misses;
    values["formats.encode_cache.hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0;
    values["formats.encode_cache.evictions"] =
        static_cast<double>(cache1.evictions - cache0.evictions);
    double busy = 0;
    unsigned workers = 1;
    for (const auto &span : lanes) {
        busy += static_cast<double>(span.endUs - span.startUs) * 1e-6;
        workers = std::max(workers, span.worker + 1);
    }
    values["common.pool.busy_s"] = busy;
    values["common.pool.tasks"] = static_cast<double>(lanes.size());
    values["common.pool.idle_frac"] =
        1.0 - busy / (wall * static_cast<double>(workers));
    report.line("traced loop: " + std::to_string(samples.size()) +
                " requests, " + std::to_string(queue.size()) +
                " matched to wide events");
    return samples;
}

/**
 * The work behind one request, called directly in the order its
 * handler calls it: matrix generation, then advise (statistics and the
 * advisor, with the clients' goal alternation), plan_formats (partition
 * and planner) or run_study.
 */
void
endpointWork(Ledger &ledger, Op op, std::uint64_t s)
{
    JsonValue spec;
    parseJson(matrixSpec(op, s), spec);
    std::optional<TripletMatrix> matrix;
    {
        const Ledger::Scope span(ledger, "serve.matrix_from_spec");
        matrix.emplace(matrixFromSpec(spec, 4096));
    }
    switch (op) {
      case Op::Advise: {
        const Ledger::Scope span(ledger, "core.advise");
        MatrixStats stats;
        {
            const Ledger::Scope statsSpan(ledger, "matrix.stats");
            stats = computeStats(*matrix);
        }
        advise(stats,
               s % 2 == 0 ? AdvisorGoal::Latency : AdvisorGoal::Balanced);
        break;
      }
      case Op::Plan: {
        const Ledger::Scope span(ledger, "core.plan");
        Partitioning parts;
        {
            const Ledger::Scope partSpan(ledger, "matrix.partition");
            parts = partition(*matrix, 16);
        }
        planFormats(parts, paperFormats(), SchedulerObjective::Bottleneck,
                    HlsConfig(), defaultRegistry(), 1);
        break;
      }
      case Op::Study: {
        StudyConfig cfg;
        cfg.jobs = 1;
        Study study(cfg);
        study.addWorkload("request", std::move(*matrix));
        const Ledger::Scope span(ledger, "core.study_run");
        study.run();
        break;
      }
    }
}

/** endpointWork for every endpoint, repeatedly, under one root span. */
void
coreCalls(Mix &mix, double seconds, LayerValues &values, Report &report)
{
    Ledger ledger(true);
    const Clock::time_point start = Clock::now();
    std::uint64_t iterations = 0;
    {
        const Ledger::Scope root(ledger, "core.calls");
        for (; iterations < 3 || secondsSince(start) < seconds;
             ++iterations) {
            for (Op op : {Op::Advise, Op::Plan, Op::Study})
                endpointWork(ledger, op,
                             mix.seed * 1000 + 100000 + iterations);
            report.operation(true);
        }
    }
    const double wall = secondsSince(start);
    // Report mean seconds per iteration: one request of each endpoint.
    addLedgerLayers(values, ledger, static_cast<double>(iterations));
    values["trace.layer_sum_over_wall"] =
        ledger.attributedS("core.calls") / wall;
    printLayerTable(report, ledger, wall);
}

} // namespace

void
runServeMix(const Options &opts, Report &report)
{
    Mix mix;
    mix.socketPath = opts.runDir + "/serve.sock";
    mix.seed = opts.seed;
    mix.clients = hostLanes();

    // Set-up: daemon start, lint gate included; the last one serves.
    std::vector<double> setupTimes;
    std::unique_ptr<Server> server;
    for (int rep = 0; rep < (opts.trace ? 1 : 15); ++rep) {
        if (server)
            stopServer(*server);
        const Clock::time_point start = Clock::now();
        server = startServer(mix.socketPath);
        setupTimes.push_back(secondsSince(start));
    }

    try {
        report.checkPinned(opts, warmUp(mix, report));
        closedLoop(mix, 1.0);

        if (!opts.trace) {
            const Clock::time_point start = Clock::now();
            const std::vector<Sample> samples =
                closedLoop(mix, opts.seconds);
            const double wall = secondsSince(start);
            countOperations(report, samples);
            const std::vector<double> all = latencies(samples);
            report.metric("setup_s", median(setupTimes), "s");
            report.metric("ops_per_s",
                          static_cast<double>(all.size()) / wall, "1/s");
            report.metric("latency_p50_ms", median(all), "ms");
            report.metric("latency_p90_ms", quantile(all, 0.9), "ms");
            report.metric("peak_rss_mb", peakRssMb(), "MiB");
            report.line("closed loop: " + std::to_string(mix.clients) +
                        " connections (half NDJSON, half CPB1), " +
                        std::to_string(samples.size()) + " requests, " +
                        "p90 over " + std::to_string(all.size()) +
                        " samples");
            report.line("ops_per_s = rps (completed requests per "
                        "second); latency = one request");
            for (Op op : {Op::Advise, Op::Plan, Op::Study}) {
                const std::vector<double> ms = latencies(samples, &op);
                std::string line = std::string(opName(op)) +
                                   "_p50_ms = " +
                                   std::to_string(median(ms)) + " ms (" +
                                   std::to_string(ms.size()) + " requests)";
                for (bool repeat : {true, false}) {
                    const std::vector<double> part =
                        latencies(samples, &op, repeat);
                    line +=std::string(repeat ? "; repeats" : "; fresh") +
                            " p50 " + std::to_string(median(part)) +
                            " p90 " + std::to_string(quantile(part, 0.9)) +
                            " (" + std::to_string(part.size()) + ")";
                }
                report.line(line);
            }
        } else {
            LayerValues values;
            const double third = opts.seconds / 3;
            const std::vector<Sample> baseline = closedLoop(mix, third);
            countOperations(report, baseline);
            const std::vector<Sample> traced =
                tracedLoop(mix, third, values, report);
            coreCalls(mix, third, values, report);
            values["trace.overhead_frac"] =
                median(latencies(traced)) / median(latencies(baseline)) -
                1.0;
            emitLayerMetrics(report, values);
        }
    } catch (...) {
        stopServer(*server);
        throw;
    }
    stopServer(*server);
}

} // namespace perfbench
