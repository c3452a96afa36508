/**
 * @file
 * The serve protocol as data, for conformance checking.
 *
 * The analysis library cannot link against serve (copernicus_core
 * links analysis, and serve links core), so the protocol pass consumes
 * this plain-data snapshot instead of the Server itself. The serve library
 * provides collectServeProtocolSurface() (serve/protocol_doc.hh),
 * which fills the "handled"/"exported" halves by interrogating the
 * real implementation — the endpoint dispatch table, a sample wide
 * event, the Prometheus exposition — and the "documented" halves from
 * the hand-maintained tables that double as the protocol docs. The
 * protocol pass (COP090-093) then reports any drift between the two.
 */

#ifndef COPERNICUS_ANALYSIS_PROTOCOL_SURFACE_HH
#define COPERNICUS_ANALYSIS_PROTOCOL_SURFACE_HH

#include <string>
#include <vector>

namespace copernicus {

/** What the serve plane implements vs what it documents. */
struct ProtocolSurface
{
    /** Endpoint names the server actually dispatches. */
    std::vector<std::string> handledEndpoints;

    /** Endpoint names the protocol documentation lists. */
    std::vector<std::string> documentedEndpoints;

    /** Field names a recorded wide event actually carries. */
    std::vector<std::string> wideEventFields;

    /** Wide-event field names the documentation lists. */
    std::vector<std::string> documentedWideEventFields;

    /** Metric family names the /metrics exposition actually exports. */
    std::vector<std::string> metricNames;

    /** Metric family names the documentation lists. */
    std::vector<std::string> documentedMetricNames;
};

} // namespace copernicus

#endif // COPERNICUS_ANALYSIS_PROTOCOL_SURFACE_HH
