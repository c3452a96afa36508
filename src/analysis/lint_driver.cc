#include "analysis/lint_driver.hh"

#include <charconv>
#include <fstream>
#include <ostream>
#include <sstream>

#include "analysis/baseline.hh"
#include "analysis/emitters.hh"
#include "analysis/pass_manager.hh"
#include "common/status.hh"

namespace copernicus {

namespace {

void
printPassTable(const PassManager &manager, std::ostream &out)
{
    out << "available passes (--passes=a,b selects a subset):\n";
    for (const PassInfo &pass : manager.passes()) {
        out << "  " << pass.name << "\n      " << pass.description
            << '\n';
        if (!pass.ids.empty()) {
            out << "      ids:";
            for (const std::string &id : pass.ids)
                out << ' ' << id;
            out << '\n';
        }
    }
}

} // namespace

int
runLintDriver(const LintDriverOptions &options, std::ostream &out)
{
    PassManager manager = PassManager::standard();
    if (options.listPasses) {
        printPassTable(manager, out);
        return 0;
    }

    LintReport report = options.passes.empty()
                            ? manager.run(options.lint)
                            : manager.run(options.lint, options.passes);

    if (!options.baselinePath.empty()) {
        LintBaseline baseline;
        if (!loadBaseline(options.baselinePath, baseline)) {
            report.error("driver", "",
                         "cannot read baseline file '" +
                             options.baselinePath + "'");
        } else {
            std::vector<std::string> unused;
            const std::size_t suppressed =
                applyBaseline(report, baseline, &unused);
            if (!options.json && suppressed != 0)
                out << "(baseline suppressed " << suppressed
                    << " finding(s))\n";
            // A stale entry means the finding it excused is gone; the
            // file should shrink with the debt it tracks.
            for (const std::string &fingerprint : unused) {
                LintDiagnostic d;
                d.severity = LintSeverity::Warning;
                d.pass = "baseline";
                d.file = options.baselinePath;
                d.message =
                    "unused baseline entry: " + fingerprint;
                d.fixHint = "delete the stale line";
                report.add(std::move(d));
            }
        }
    }

    if (!options.sarifPath.empty()) {
        std::ofstream sarif(options.sarifPath);
        if (sarif)
            sarif << lintReportToSarif(report);
        else
            report.error("driver", "",
                         "cannot write SARIF to '" +
                             options.sarifPath + "'");
    }

    if (options.json) {
        out << lintReportToJson(report) << '\n';
    } else {
        if (!report.diagnostics.empty())
            out << report.toString();
        out << report.errorCount() << " error(s), "
            << report.warningCount() << " warning(s)\n";
    }
    return lintExitCode(report, options.werror);
}

std::vector<Index>
parsePartitionSizes(const std::string &arg)
{
    const std::string malformed =
        "malformed partition-size list '" + arg + "'";
    std::vector<Index> sizes;
    std::istringstream in(arg);
    std::string token;
    while (std::getline(in, token, ',')) {
        Index size = 0;
        const char *end = token.data() + token.size();
        const auto [stop, ec] = std::from_chars(token.data(), end, size);
        COPERNICUS_FATAL_IF(ec != std::errc() || stop != end || size == 0,
                            malformed);
        sizes.push_back(size);
    }
    COPERNICUS_FATAL_IF(sizes.empty(), malformed);
    return sizes;
}

} // namespace copernicus
