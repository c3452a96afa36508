/**
 * @file
 * Wire protocol of the characterization service daemon.
 *
 * Requests and responses are newline-delimited JSON objects over a
 * byte stream (Unix-domain socket by default, TCP optionally):
 *
 *   -> {"op": "advise", "id": 7, "timeout_ms": 250,
 *       "params": {"matrix": {"kind": "band", "n": 512, "width": 8,
 *                             "seed": 1},
 *                  "goal": "latency"}}
 *   <- {"ok": true, "id": 7, "op": "advise", "result": {...}}
 *
 * Every request line receives exactly one response line — a result, or
 * an explicit error ({"ok": false, ..., "error": "<code>"}); the
 * server never silently drops a request. Error codes are the
 * serve_error constants below. This header owns parsing (on top of
 * common/json's JsonValue) and response serialisation so the server,
 * the client library and the tests agree on one source of truth.
 */

#ifndef COPERNICUS_SERVE_PROTOCOL_HH
#define COPERNICUS_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

#include "common/json.hh"
#include "common/trace_context.hh"
#include "core/advisor.hh"
#include "formats/format_kind.hh"
#include "matrix/triplet_matrix.hh"

namespace copernicus {

/** The operations the daemon serves. */
enum class Endpoint
{
    Ping,         ///< liveness probe
    Stats,        ///< per-endpoint latency/queue counters, memo
    Shutdown,     ///< begin graceful drain (responds first)
    Sleep,        ///< hold a worker for params.ms (load-gen/tests)
    RunStudy,     ///< full format x partition sweep over one matrix
    PlanFormats,  ///< adaptive per-tile format plan
    Advise,       ///< Section-8 format recommendation
    ValidateTile, ///< grammar-validate every encoded tile
    Metrics,      ///< Prometheus text exposition scrape
    DumpFlightRec, ///< dump the flight recorder (to file or inline)
    StoreInfo,    ///< inspect a .cbm binary matrix container
};

/** Every endpoint, in a fixed order (stats registration order). */
const std::vector<Endpoint> &allEndpoints();

/** Wire name of @p endpoint ("run_study", "ping", ...). */
std::string_view endpointName(Endpoint endpoint);

/** Parse a wire name; false when unknown. */
bool parseEndpoint(std::string_view name, Endpoint &out);

/** Machine-readable error codes carried in the "error" field. */
namespace serve_error {

inline constexpr std::string_view badRequest = "bad_request";
inline constexpr std::string_view queueFull = "queue_full";
inline constexpr std::string_view deadlineExceeded = "deadline_exceeded";
inline constexpr std::string_view cancelled = "cancelled";
inline constexpr std::string_view shuttingDown = "shutting_down";
inline constexpr std::string_view internal = "internal";

} // namespace serve_error

/** One parsed request line. */
struct ServeRequest
{
    Endpoint endpoint = Endpoint::Ping;

    /** Client-chosen correlation id, echoed in the response. */
    std::uint64_t id = 0;

    /** Per-request deadline; 0 falls back to the server default. */
    double timeoutMs = 0;

    /** The "params" object (empty object when the field is absent). */
    JsonValue params;

    /**
     * Caller's trace identity from the optional wire field
     * `"trace": {"trace_id": "<hex>", "parent_span_id": "<hex>"}`;
     * invalid (traceId 0) when absent or malformed — a bad trace field
     * never fails a request. spanId carries the parent span.
     */
    TraceContext trace;
};

/**
 * Why a request line failed to parse — the server keys its
 * per-endpoint error counters off this, so "the client sent garbage"
 * and "the client named an op we don't serve" stay distinguishable in
 * the metrics.
 */
enum class RequestParseError
{
    None,          ///< parse succeeded
    MalformedJson, ///< not valid JSON at all
    NotAnObject,   ///< valid JSON but not an object
    MissingOp,     ///< no string "op" field
    UnknownOp,     ///< "op" names nothing we serve
    BadParams,     ///< "params" present but not an object
};

/** Wire/metric label for a parse error ("malformed_json", ...). */
std::string_view requestParseErrorName(RequestParseError error);

/**
 * Parse one request line.
 *
 * @param line One newline-stripped JSON object.
 * @param out Filled on success.
 * @param error Human-readable reason on failure.
 * @param why Classification of the failure (None on success).
 * @return False on malformed JSON, a missing/unknown "op", or a
 *         non-object "params".
 */
bool parseRequest(const std::string &line, ServeRequest &out,
                  std::string &error, RequestParseError &why);

/** parseRequest() without the classification out-param. */
bool parseRequest(const std::string &line, ServeRequest &out,
                  std::string &error);

/**
 * Serialise a success response. @p resultJson must be a complete JSON
 * value (typically an object built by the handler). When the request
 * carries a valid trace the response echoes `"trace_id"` (hex), so a
 * client can correlate its reply with the server's spans and wide
 * event.
 */
std::string okResponse(const ServeRequest &request,
                       const std::string &resultJson);

/**
 * Serialise an error response. @p op is the wire name when known, ""
 * for lines that never parsed far enough to have one; @p traceId is
 * echoed as `"trace_id"` when non-zero.
 */
std::string errorResponse(std::uint64_t id, std::string_view op,
                          std::string_view code,
                          const std::string &message,
                          std::uint64_t traceId = 0);

/**
 * Build the workload matrix described by a request's "matrix" spec:
 *
 *   {"kind": "random",    "n", "density", "seed"}
 *   {"kind": "band",      "n", "width", "seed", "fill"}
 *   {"kind": "diagonal",  "n", "seed"}
 *   {"kind": "stencil2d", "nx", "ny"}
 *   {"kind": "rmat",      "n", "edges", "seed"}
 *   {"kind": "pruned",    "rows", "cols", "density", "seed", "block"}
 *   {"kind": "file",      "path"}
 *   {"kind": "cbm",       "path"}
 *
 * All generators are deterministic given the spec, so a request is
 * reproducible offline from its JSON alone. Dimensions are capped at
 * @p maxDim — the daemon's guard against a single request occupying a
 * worker indefinitely. Throws FatalError (mapped to bad_request) on a
 * malformed spec.
 */
TripletMatrix matrixFromSpec(const JsonValue &spec, Index maxDim);

/** Parse an advisor goal name ("latency", ...); FatalError if unknown. */
AdvisorGoal goalFromName(std::string_view name);

/**
 * Format list from a JSON array of names; @p fallback when @p array is
 * null. FatalError on an unknown name.
 */
std::vector<FormatKind>
formatsFromParam(const JsonValue *array,
                 const std::vector<FormatKind> &fallback);

/**
 * Partition sizes from a JSON array of numbers; @p fallback when
 * @p array is null. FatalError on a non-positive size.
 */
std::vector<Index>
partitionSizesFromParam(const JsonValue *array,
                        const std::vector<Index> &fallback);

} // namespace copernicus

#endif // COPERNICUS_SERVE_PROTOCOL_HH
