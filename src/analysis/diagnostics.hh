/**
 * @file
 * Structured diagnostics for the static analyzer.
 *
 * Every finding any pass produces is a LintDiagnostic: a stable rule
 * id (COP###), a severity, the pass that produced it, and a location —
 * either model-level (format, optionally a schedule segment) or
 * source-level (file and line, for the source-scanning passes). Ids
 * are contracts: tests, baselines (analysis/baseline) and the SARIF
 * export (analysis/emitters) all key on them, so an id is never
 * renumbered once shipped. The full id table lives in README.md and is
 * exported as SARIF rule metadata by lintRuleDescription().
 *
 * Severity maps to process exit status through lintExitCode(), the one
 * place the mapping is defined: 0 = clean, 1 = errors (or warnings
 * under --werror), 2 = warnings only. copernicus_lint returns it
 * verbatim.
 */

#ifndef COPERNICUS_ANALYSIS_DIAGNOSTICS_HH
#define COPERNICUS_ANALYSIS_DIAGNOSTICS_HH

#include <string>
#include <vector>

namespace copernicus {

/** How bad one lint finding is. */
enum class LintSeverity
{
    Warning, ///< suspicious but does not invalidate the model
    Error,   ///< the model or an encoding is wrong; lint exits nonzero
};

/** One finding, with a stable rule id and a location. */
struct LintDiagnostic
{
    LintSeverity severity = LintSeverity::Error;

    /** Stable rule id ("COP004"); "" only for ad-hoc test reports. */
    std::string id;

    /** Pass that produced it: "spec", "overflow", "protocol", ... */
    std::string pass;

    /** Format the finding concerns ("" for global findings). */
    std::string format;

    /** Schedule segment (or segment chain) involved, or "". */
    std::string segment;

    /** Source file, for source-scanning passes ("" otherwise). */
    std::string file;

    /** 1-based line in @ref file; 0 when not file-anchored. */
    int line = 0;

    std::string message;

    /** Suggested remediation, or "" when none is known. */
    std::string fixHint;

    /**
     * "error[spec] COP004 CSR: ..." — id omitted when empty,
     * "format(segment)" when a segment is named, "file:line" for
     * source-anchored findings.
     */
    std::string toString() const;

    /**
     * Baseline identity: id + pass + format + segment (+ file), never
     * the message text, so reworded diagnostics stay suppressed.
     */
    std::string fingerprint() const;
};

/** Everything one lint run found. */
struct LintReport
{
    std::vector<LintDiagnostic> diagnostics;

    std::size_t errorCount() const;
    std::size_t warningCount() const;

    /** True when no error-severity diagnostics were produced. */
    bool ok() const { return errorCount() == 0; }

    /** One line per diagnostic. */
    std::string toString() const;

    void
    add(LintDiagnostic diagnostic)
    {
        diagnostics.push_back(std::move(diagnostic));
    }

    void
    error(const std::string &pass, const std::string &format,
          const std::string &message)
    {
        LintDiagnostic d;
        d.severity = LintSeverity::Error;
        d.pass = pass;
        d.format = format;
        d.message = message;
        diagnostics.push_back(std::move(d));
    }

    void
    warning(const std::string &pass, const std::string &format,
            const std::string &message)
    {
        LintDiagnostic d;
        d.severity = LintSeverity::Warning;
        d.pass = pass;
        d.format = format;
        d.message = message;
        diagnostics.push_back(std::move(d));
    }

    void
    error(const std::string &id, const std::string &pass,
          const std::string &format, const std::string &message)
    {
        LintDiagnostic d;
        d.severity = LintSeverity::Error;
        d.id = id;
        d.pass = pass;
        d.format = format;
        d.message = message;
        diagnostics.push_back(std::move(d));
    }

    void
    warning(const std::string &id, const std::string &pass,
            const std::string &format, const std::string &message)
    {
        LintDiagnostic d;
        d.severity = LintSeverity::Warning;
        d.id = id;
        d.pass = pass;
        d.format = format;
        d.message = message;
        diagnostics.push_back(std::move(d));
    }
};

/**
 * The severity -> exit-status mapping, pinned by tests:
 *   0  no diagnostics (or warnings all suppressed)
 *   1  at least one error, or any warning under @p werror
 *   2  warnings only
 */
int lintExitCode(const LintReport &report, bool werror = false);

/**
 * One-line human description of a rule id for SARIF metadata and
 * --list-passes; "" for unknown ids.
 */
std::string lintRuleDescription(const std::string &id);

} // namespace copernicus

#endif // COPERNICUS_ANALYSIS_DIAGNOSTICS_HH
