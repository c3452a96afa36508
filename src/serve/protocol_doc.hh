/**
 * @file
 * The serve protocol's documented surface, plus the collector that
 * snapshots the implemented surface for conformance lint.
 *
 * Three hand-maintained tables — endpoints, wide-event fields, metric
 * families — are the protocol documentation of record: README.md's
 * serve section renders them, operators build dashboards against them,
 * and the analyzer's protocol pass (COP090-093) diffs them against
 * what the implementation actually exposes. Keeping the tables here,
 * next to the code they describe, makes "update the docs" a compile-
 * adjacent edit the lint gate enforces instead of a wiki chore.
 *
 * collectServeProtocolSurface() fills an analysis::ProtocolSurface
 * with both halves: the documented tables verbatim, and the
 * implemented side interrogated from the real artifacts — the
 * endpoint registry, a sample wide event built by the same
 * buildWideEventJson() the server records through, and the metric
 * families parsed out of a throwaway Server's Prometheus exposition.
 * The lint CLIs and the daemon's startup gate inject that surface
 * into LintOptions::protocol.
 */

#ifndef COPERNICUS_SERVE_PROTOCOL_DOC_HH
#define COPERNICUS_SERVE_PROTOCOL_DOC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/protocol_surface.hh"

namespace copernicus {

/** Everything one request's wide event records. */
struct WideEventInputs
{
    std::string endpoint; ///< wire name ("run_study")
    std::uint64_t id = 0;
    std::string traceIdHex;
    std::string outcome = "ok";
    std::uint64_t receiptUs = 0;
    std::uint64_t queueWaitUs = 0;
    std::uint64_t latencyUs = 0;
    double deadlineBudgetMs = 0;
    double deadlineUsedMs = 0;
    std::uint64_t compressUs = 0;
    std::uint64_t formatsSwept = 0;
    bool memoHit = false;          ///< served from the result memo
    std::string protocol = "ndjson"; ///< wire dialect ("binary")
};

/**
 * Serialize one wide event. This is the *only* producer of the
 * flight-recorder request record — the server records through it and
 * the protocol collector parses a sample of it, so the lint pass
 * checks the real field set, not a copy.
 */
std::string buildWideEventJson(const WideEventInputs &inputs);

/** Documented request endpoints (wire names). */
const std::vector<std::string> &documentedEndpoints();

/** Documented wide-event fields. */
const std::vector<std::string> &documentedWideEventFields();

/** Documented Prometheus metric families. */
const std::vector<std::string> &documentedMetricFamilies();

/**
 * Snapshot the implemented + documented surface for the protocol
 * lint pass. Constructs a throwaway (never started) Server to scrape
 * the metric exposition; cheap and socket-free.
 */
ProtocolSurface collectServeProtocolSurface();

} // namespace copernicus

#endif // COPERNICUS_SERVE_PROTOCOL_DOC_HH
