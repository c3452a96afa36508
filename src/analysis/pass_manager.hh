/**
 * @file
 * The analyzer's pass framework.
 *
 * Every lint check is a named pass: a description, the rule ids it can
 * emit, and a whole-run check from (options, report), a per-tile check
 * from (options, tile, encoding, report), or both.
 * PassManager::standard() owns the registered list — the same one
 * `copernicus_lint --list-passes` prints and `--passes=a,b` selects
 * from. Names are the only switch: runLint() is exactly
 * standard().run(options), every pass.
 *
 * The tile checks (grammar, oracle, compress) share one sweep: run()
 * calls forEachLintTile once, encodes each (tile, format) pair once
 * and hands that encoding to every selected tile check. Each selected
 * pass writes its own report, spliced in registration order, so a
 * pass's findings are the same, in the same place, whatever else
 * `--passes` selects. Passes only append diagnostics and never read
 * each other's.
 */

#ifndef COPERNICUS_ANALYSIS_PASS_MANAGER_HH
#define COPERNICUS_ANALYSIS_PASS_MANAGER_HH

#include <functional>
#include <string>
#include <vector>

#include "analysis/schedule_check.hh"

namespace copernicus {

/** One registered analyzer pass; it sets run, checkTile or both. */
struct PassInfo
{
    /** Selection name ("overflow", "thread-safety", ...). */
    std::string name;

    /** One-line description for --list-passes. */
    std::string description;

    /** Rule ids this pass can emit ("COP060", ...). */
    std::vector<std::string> ids;

    /** Append this pass's whole-run findings to the report. */
    std::function<void(const LintOptions &, LintReport &)> run;

    /**
     * Append the findings for one tile of the synthetic sweep and its
     * encoding in one format (the encoding's kind()).
     */
    std::function<void(const LintOptions &, const Tile &,
                       const EncodedTile &, LintReport &)>
        checkTile = nullptr;
};

/** The registered pass list and the drivers over it. */
class PassManager
{
  public:
    /** The process-wide registry of every pass, in run order. */
    static const PassManager &standard();

    const std::vector<PassInfo> &passes() const { return registered; }

    /** The pass named @p name, or nullptr. */
    const PassInfo *find(const std::string &name) const;

    /** Run every registered pass. */
    LintReport run(const LintOptions &options) const;

    /**
     * Run exactly @p selection (registration order, duplicates
     * collapsed), with one tile sweep for all of its tile checks.
     * An unknown name produces an error diagnostic (pass
     * "driver") instead of silently checking nothing.
     */
    LintReport run(const LintOptions &options,
                   const std::vector<std::string> &selection) const;

    /** Register @p pass (used by standard()'s builder and tests). */
    void add(PassInfo pass) { registered.push_back(std::move(pass)); }

  private:
    std::vector<PassInfo> registered;
};

} // namespace copernicus

#endif // COPERNICUS_ANALYSIS_PASS_MANAGER_HH
