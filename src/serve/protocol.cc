#include "serve/protocol.hh"

#include <cmath>
#include <sstream>

#include "common/rng.hh"
#include "common/status.hh"
#include "matrix/mm_io.hh"
#include "store/container.hh"
#include "workloads/generators.hh"

namespace copernicus {

const std::vector<Endpoint> &
allEndpoints()
{
    static const std::vector<Endpoint> endpoints = {
        Endpoint::Ping,       Endpoint::Stats,
        Endpoint::Shutdown,   Endpoint::Sleep,
        Endpoint::RunStudy,   Endpoint::PlanFormats,
        Endpoint::Advise,     Endpoint::ValidateTile,
        Endpoint::Metrics,    Endpoint::DumpFlightRec,
        Endpoint::StoreInfo,
    };
    return endpoints;
}

std::string_view
endpointName(Endpoint endpoint)
{
    switch (endpoint) {
      case Endpoint::Ping: return "ping";
      case Endpoint::Stats: return "stats";
      case Endpoint::Shutdown: return "shutdown";
      case Endpoint::Sleep: return "sleep";
      case Endpoint::RunStudy: return "run_study";
      case Endpoint::PlanFormats: return "plan_formats";
      case Endpoint::Advise: return "advise";
      case Endpoint::ValidateTile: return "validate_tile";
      case Endpoint::Metrics: return "metrics";
      case Endpoint::DumpFlightRec: return "dump_flightrec";
      case Endpoint::StoreInfo: return "store_info";
    }
    panic("endpointName: unhandled endpoint");
}

bool
parseEndpoint(std::string_view name, Endpoint &out)
{
    for (Endpoint endpoint : allEndpoints()) {
        if (endpointName(endpoint) == name) {
            out = endpoint;
            return true;
        }
    }
    return false;
}

std::string_view
requestParseErrorName(RequestParseError error)
{
    switch (error) {
      case RequestParseError::None: return "none";
      case RequestParseError::MalformedJson: return "malformed_json";
      case RequestParseError::NotAnObject: return "not_an_object";
      case RequestParseError::MissingOp: return "missing_op";
      case RequestParseError::UnknownOp: return "unknown_op";
      case RequestParseError::BadParams: return "bad_params";
    }
    panic("requestParseErrorName: unhandled error");
}

bool
parseRequest(const std::string &line, ServeRequest &out,
             std::string &error, RequestParseError &why)
{
    why = RequestParseError::None;
    JsonValue root;
    if (!parseJson(line, root)) {
        error = "request is not valid JSON";
        why = RequestParseError::MalformedJson;
        return false;
    }
    if (!root.isObject()) {
        error = "request must be a JSON object";
        why = RequestParseError::NotAnObject;
        return false;
    }
    const JsonValue *op = root.find("op");
    if (op == nullptr || !op->isString()) {
        error = "request needs a string \"op\" field";
        why = RequestParseError::MissingOp;
        return false;
    }
    if (!parseEndpoint(op->text, out.endpoint)) {
        error = "unknown op '" + op->text + "'";
        why = RequestParseError::UnknownOp;
        return false;
    }
    const double id = root.numberOr("id", 0);
    out.id = id > 0 && std::isfinite(id)
                 ? static_cast<std::uint64_t>(id)
                 : 0;
    out.timeoutMs = root.numberOr("timeout_ms", 0);
    if (out.timeoutMs < 0)
        out.timeoutMs = 0;
    const JsonValue *params = root.find("params");
    if (params != nullptr && !params->isObject()) {
        error = "\"params\" must be an object";
        why = RequestParseError::BadParams;
        return false;
    }
    out.params = params != nullptr ? *params : JsonValue{};
    out.params.kind = JsonValue::Kind::Object;
    // Trace propagation is strictly best-effort: absent, non-object or
    // unparseable ids leave the request untraced rather than failing
    // it.
    out.trace = TraceContext{};
    const JsonValue *trace = root.find("trace");
    if (trace != nullptr && trace->isObject()) {
        out.trace.traceId =
            traceIdFromHex(trace->stringOr("trace_id", ""));
        out.trace.spanId =
            traceIdFromHex(trace->stringOr("parent_span_id", ""));
        if (!out.trace.valid())
            out.trace = TraceContext{};
    }
    return true;
}

bool
parseRequest(const std::string &line, ServeRequest &out,
             std::string &error)
{
    RequestParseError why;
    return parseRequest(line, out, error, why);
}

std::string
okResponse(const ServeRequest &request, const std::string &resultJson)
{
    std::ostringstream out;
    out << "{\"ok\": true, \"id\": " << request.id << ", \"op\": ";
    writeJsonString(out, endpointName(request.endpoint));
    if (request.trace.valid()) {
        out << ", \"trace_id\": ";
        writeJsonString(out, traceIdToHex(request.trace.traceId));
    }
    out << ", \"result\": " << resultJson << '}';
    return out.str();
}

std::string
errorResponse(std::uint64_t id, std::string_view op,
              std::string_view code, const std::string &message,
              std::uint64_t traceId)
{
    std::ostringstream out;
    out << "{\"ok\": false, \"id\": " << id << ", \"op\": ";
    writeJsonString(out, op);
    out << ", \"error\": ";
    writeJsonString(out, code);
    out << ", \"message\": ";
    writeJsonString(out, message);
    if (traceId != 0) {
        out << ", \"trace_id\": ";
        writeJsonString(out, traceIdToHex(traceId));
    }
    out << '}';
    return out.str();
}

namespace {

Index
indexField(const JsonValue &spec, std::string_view key, double fallback,
           Index maxDim)
{
    const double value = spec.numberOr(key, fallback);
    COPERNICUS_FATAL_IF(value < 1 || !std::isfinite(value),
                        "matrix spec: '" + std::string(key) +
                            "' must be a positive number");
    COPERNICUS_FATAL_IF(
        value > static_cast<double>(maxDim),
        "matrix spec: '" + std::string(key) + "' = " +
            std::to_string(static_cast<std::uint64_t>(value)) +
            " exceeds the server cap of " + std::to_string(maxDim));
    return static_cast<Index>(value);
}

} // namespace

TripletMatrix
matrixFromSpec(const JsonValue &spec, Index maxDim)
{
    COPERNICUS_FATAL_IF(!spec.isObject(), "request needs a \"matrix\" object");
    const std::string kind = spec.stringOr("kind", "");
    COPERNICUS_FATAL_IF(kind.empty(), "matrix spec needs a \"kind\" string");

    const auto seed = static_cast<std::uint64_t>(
        spec.numberOr("seed", 1));
    Rng rng(seed);

    if (kind == "random") {
        const Index n = indexField(spec, "n", 256, maxDim);
        const double density = spec.numberOr("density", 0.05);
        COPERNICUS_FATAL_IF(density <= 0 || density > 1,
                            "matrix spec: random density must be in (0, 1]");
        return randomMatrix(n, density, rng);
    }
    if (kind == "band") {
        const Index n = indexField(spec, "n", 256, maxDim);
        const Index width = indexField(spec, "width", 8, maxDim);
        const double fill = spec.numberOr("fill", 1.0);
        COPERNICUS_FATAL_IF(fill <= 0 || fill > 1,
                            "matrix spec: band fill must be in (0, 1]");
        return bandMatrix(n, width, rng, fill);
    }
    if (kind == "diagonal") {
        const Index n = indexField(spec, "n", 256, maxDim);
        return diagonalMatrix(n, rng);
    }
    if (kind == "stencil2d") {
        // The matrix dimension is nx*ny, so the per-axis cap is the
        // square root of the dimension cap.
        const auto axisCap = static_cast<Index>(
            std::sqrt(static_cast<double>(maxDim)));
        const Index nx = indexField(spec, "nx", 32,
                                    std::max<Index>(1, axisCap));
        const Index ny = indexField(spec, "ny", 32,
                                    std::max<Index>(1, axisCap));
        return stencil2d(nx, ny);
    }
    if (kind == "rmat") {
        const Index n = indexField(spec, "n", 512, maxDim);
        const double edges = spec.numberOr(
            "edges", static_cast<double>(n) * 4);
        COPERNICUS_FATAL_IF(edges < 1 ||
                                edges > static_cast<double>(maxDim) * 64,
                            "matrix spec: rmat edges out of range");
        return rmatGraph(n, static_cast<std::size_t>(edges), rng);
    }
    if (kind == "pruned") {
        const Index rows = indexField(spec, "rows", 256, maxDim);
        const Index cols = indexField(spec, "cols", rows, maxDim);
        const double density = spec.numberOr("density", 0.3);
        COPERNICUS_FATAL_IF(density <= 0 || density > 1,
                            "matrix spec: pruned density must be in (0, 1]");
        return prunedLayer(rows, cols, density, rng,
                           spec.boolOr("block", false));
    }
    if (kind == "file") {
        const std::string path = spec.stringOr("path", "");
        COPERNICUS_FATAL_IF(path.empty(),
                            "matrix spec: file kind needs a path");
        TripletMatrix matrix = readMatrixMarketFile(path);
        COPERNICUS_FATAL_IF(matrix.rows() > maxDim || matrix.cols() > maxDim,
                            "matrix file '" + path +
                                "' exceeds the server dimension cap of " +
                                std::to_string(maxDim));
        return matrix;
    }
    if (kind == "cbm") {
        const std::string path = spec.stringOr("path", "");
        COPERNICUS_FATAL_IF(path.empty(),
                            "matrix spec: cbm kind needs a path");
        const CbmReader reader(path);
        COPERNICUS_FATAL_IF(reader.rows() > maxDim || reader.cols() > maxDim,
                            "cbm container '" + path +
                                "' exceeds the server dimension cap of " +
                                std::to_string(maxDim));
        return reader.toTripletMatrix();
    }
    fatal("matrix spec: unknown kind '" + kind + "'");
}

AdvisorGoal
goalFromName(std::string_view name)
{
    if (name == "latency")
        return AdvisorGoal::Latency;
    if (name == "throughput")
        return AdvisorGoal::Throughput;
    if (name == "power")
        return AdvisorGoal::Power;
    if (name == "bandwidth")
        return AdvisorGoal::Bandwidth;
    if (name == "balanced")
        return AdvisorGoal::Balanced;
    fatal("unknown advisor goal '" + std::string(name) +
          "' (expected latency|throughput|power|bandwidth|balanced)");
}

std::vector<FormatKind>
formatsFromParam(const JsonValue *array,
                 const std::vector<FormatKind> &fallback)
{
    if (array == nullptr)
        return fallback;
    COPERNICUS_FATAL_IF(!array->isArray(),
                        "\"formats\" must be an array of names");
    std::vector<FormatKind> kinds;
    for (const JsonValue &entry : array->elements) {
        COPERNICUS_FATAL_IF(!entry.isString(), "format names must be strings");
        kinds.push_back(parseFormatKind(entry.text));
    }
    COPERNICUS_FATAL_IF(kinds.empty(), "\"formats\" must not be empty");
    return kinds;
}

std::vector<Index>
partitionSizesFromParam(const JsonValue *array,
                        const std::vector<Index> &fallback)
{
    if (array == nullptr)
        return fallback;
    COPERNICUS_FATAL_IF(!array->isArray(),
                        "\"partition_sizes\" must be an array of numbers");
    std::vector<Index> sizes;
    for (const JsonValue &entry : array->elements) {
        COPERNICUS_FATAL_IF(!entry.isNumber() || entry.number < 1 ||
                                entry.number > 4096,
                            "partition sizes must be numbers in [1, 4096]");
        sizes.push_back(static_cast<Index>(entry.number));
    }
    COPERNICUS_FATAL_IF(sizes.empty(),
                        "\"partition_sizes\" must not be empty");
    return sizes;
}

} // namespace copernicus
