/**
 * @file
 * Serve-protocol conformance pass (rules COP090-093).
 *
 * The serve plane's external surface — endpoint names, wide-event
 * fields, Prometheus metric families — is documented in hand-written
 * tables (serve/protocol_doc.hh) that operators and dashboards are
 * built against. This pass diffs those tables against what the
 * implementation actually exposes, both directions:
 *
 *  - COP090: an endpoint the dispatch table handles but the docs do
 *    not list (an invisible API surface).
 *  - COP091: a documented endpoint no handler serves (a dead doc, or
 *    a deleted handler someone still depends on).
 *  - COP092: wide-event field drift — a dashboard keyed on a renamed
 *    field silently flatlines.
 *  - COP093: metric-family drift, same failure mode for alerts.
 *
 * Analysis cannot link serve (copernicus_core links analysis, and
 * serve links core), so the pass consumes an injected ProtocolSurface;
 * the serve library fills one with collectServeProtocolSurface().
 */

#ifndef COPERNICUS_ANALYSIS_PROTOCOL_PASS_HH
#define COPERNICUS_ANALYSIS_PROTOCOL_PASS_HH

#include "analysis/protocol_surface.hh"
#include "analysis/schedule_check.hh"

namespace copernicus {

/** The full conformance diff over one surface snapshot. */
void checkProtocolSurface(const ProtocolSurface &surface,
                          LintReport &report);

/** The pass: runs the diff when options.protocol is set, else skips. */
void runProtocolPass(const LintOptions &options, LintReport &report);

} // namespace copernicus

#endif // COPERNICUS_ANALYSIS_PROTOCOL_PASS_HH
