/**
 * @file
 * The driver behind `copernicus_lint`, the one lint front end.
 *
 * The tool parses argv into a LintDriverOptions and hands it here. The
 * driver runs the pass manager (every pass, or the subset `--passes=`
 * names), applies a baseline file, surfaces stale baseline entries as
 * warnings, emits human text or JSON to the given stream plus an
 * optional SARIF file, and maps the final report to an exit code via
 * lintExitCode().
 */

#ifndef COPERNICUS_ANALYSIS_LINT_DRIVER_HH
#define COPERNICUS_ANALYSIS_LINT_DRIVER_HH

#include <iosfwd>
#include <string>
#include <vector>

#include "analysis/schedule_check.hh"

namespace copernicus {

/** Parsed lint CLI flags; `lint` carries what the passes check. */
struct LintDriverOptions
{
    LintOptions lint;
    /** Exact pass names to run; empty means every registered pass. */
    std::vector<std::string> passes;
    bool listPasses = false;   ///< print the pass table and exit 0
    bool json = false;         ///< machine-readable report on stdout
    std::string sarifPath;     ///< write SARIF 2.1.0 here when set
    std::string baselinePath;  ///< suppress fingerprints listed here
    bool werror = false;       ///< warnings exit 1 instead of 2
};

/**
 * Run the lint passes per `options`, write the report to `out`, and
 * return the process exit code (0 clean, 1 errors or --werror
 * warnings, 2 warnings).
 */
int runLintDriver(const LintDriverOptions &options, std::ostream &out);

/**
 * Parse a comma-separated partition-size list such as "8,16,32", the
 * positional argument of copernicus_lint and copernicus_cli. A
 * malformed list (an entry that is not a positive unsigned 32-bit
 * number, or no entry at all) is a FatalError.
 */
std::vector<Index> parsePartitionSizes(const std::string &arg);

} // namespace copernicus

#endif // COPERNICUS_ANALYSIS_LINT_DRIVER_HH
