#include "serve/protocol_doc.hh"

#include <sstream>

#include "common/json.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"

namespace copernicus {

namespace {

std::string
quoted(std::string_view text)
{
    std::ostringstream out;
    writeJsonString(out, text);
    return out.str();
}

std::string
num(double v)
{
    std::ostringstream out;
    writeJsonNumber(out, v);
    return out.str();
}

} // namespace

std::string
buildWideEventJson(const WideEventInputs &in)
{
    // One flat, pre-serialised record per request: everything a
    // post-mortem asks first, without joining other data sources.
    std::ostringstream out;
    out << "{\"type\": \"request\", \"endpoint\": "
        << quoted(in.endpoint) << ", \"id\": " << in.id
        << ", \"trace_id\": " << quoted(in.traceIdHex)
        << ", \"outcome\": " << quoted(in.outcome)
        << ", \"receipt_us\": " << in.receiptUs
        << ", \"queue_wait_us\": " << in.queueWaitUs
        << ", \"latency_us\": " << in.latencyUs
        << ", \"deadline_budget_ms\": " << num(in.deadlineBudgetMs)
        << ", \"deadline_used_ms\": " << num(in.deadlineUsedMs)
        << ", \"compress_us\": " << in.compressUs
        << ", \"formats_swept\": " << in.formatsSwept
        << ", \"memo_hit\": " << (in.memoHit ? "true" : "false")
        << ", \"protocol\": " << quoted(in.protocol) << '}';
    return out.str();
}

const std::vector<std::string> &
documentedEndpoints()
{
    static const std::vector<std::string> table = {
        "ping",          "stats",       "shutdown",
        "sleep",         "run_study",   "plan_formats",
        "advise",        "validate_tile", "metrics",
        "dump_flightrec", "store_info",
    };
    return table;
}

const std::vector<std::string> &
documentedWideEventFields()
{
    static const std::vector<std::string> table = {
        "type",
        "endpoint",
        "id",
        "trace_id",
        "outcome",
        "receipt_us",
        "queue_wait_us",
        "latency_us",
        "deadline_budget_ms",
        "deadline_used_ms",
        "compress_us",
        "formats_swept",
        "memo_hit",
        "protocol",
    };
    return table;
}

const std::vector<std::string> &
documentedMetricFamilies()
{
    static const std::vector<std::string> table = {
        "copernicus_serve_requests_accepted_total",
        "copernicus_serve_requests_rejected_total",
        "copernicus_serve_requests_completed_total",
        "copernicus_serve_requests_errored_total",
        "copernicus_serve_bad_lines_total",
        "copernicus_serve_connections_total",
        "copernicus_serve_frame_errors_total",
        "copernicus_serve_streams_cancelled_total",
        "copernicus_serve_queue_depth",
        "copernicus_serve_memo_hits_total",
        "copernicus_serve_memo_misses_total",
        "copernicus_serve_memo_evictions_total",
        "copernicus_serve_memo_entries",
        "copernicus_serve_memo_bytes",
        "copernicus_serve_request_duration_seconds",
        "copernicus_thread_pool_tasks_total",
        "copernicus_flightrec_wide_events_total",
        "copernicus_flightrec_wide_events_dropped_total",
        "copernicus_spans_recorded_total",
        "copernicus_spans_dropped_total",
    };
    return table;
}

ProtocolSurface
collectServeProtocolSurface()
{
    ProtocolSurface surface;

    // Implemented endpoints: the dispatch switch covers every enum
    // value (a missing case is a -Wswitch build error), so the
    // endpoint registry IS the handled set.
    for (const Endpoint endpoint : allEndpoints())
        surface.handledEndpoints.emplace_back(endpointName(endpoint));

    // Implemented wide-event fields: build a sample through the one
    // real serializer and read the keys back.
    JsonValue sample;
    if (parseJson(buildWideEventJson(WideEventInputs()), sample))
        for (const auto &[key, value] : sample.members)
            surface.wideEventFields.push_back(key);

    // Implemented metric families: scrape a throwaway Server (never
    // started, so no socket) and read the `# HELP <name>` lines the
    // exposition writes once per family.
    ServeOptions options;
    options.observability = false;
    const Server probe(std::move(options));
    std::istringstream metrics(probe.metricsText());
    std::string line;
    while (std::getline(metrics, line)) {
        constexpr std::string_view help = "# HELP ";
        if (line.compare(0, help.size(), help) != 0)
            continue;
        const std::string::size_type nameEnd =
            line.find(' ', help.size());
        surface.metricNames.push_back(
            line.substr(help.size(), nameEnd == std::string::npos
                                         ? std::string::npos
                                         : nameEnd - help.size()));
    }

    surface.documentedEndpoints = documentedEndpoints();
    surface.documentedWideEventFields = documentedWideEventFields();
    surface.documentedMetricNames = documentedMetricFamilies();
    return surface;
}

} // namespace copernicus
