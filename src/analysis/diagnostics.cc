#include "analysis/diagnostics.hh"

#include <utility>

namespace copernicus {

std::string
LintDiagnostic::toString() const
{
    std::string out =
        severity == LintSeverity::Error ? "error[" : "warning[";
    out += pass;
    out += "] ";
    if (!id.empty()) {
        out += id;
        out += ' ';
    }
    if (!format.empty()) {
        out += format;
        if (!segment.empty()) {
            out += '(';
            out += segment;
            out += ')';
        }
        out += ": ";
    } else if (!file.empty()) {
        out += file;
        if (line > 0) {
            out += ':';
            out += std::to_string(line);
        }
        out += ": ";
    }
    out += message;
    return out;
}

std::string
LintDiagnostic::fingerprint() const
{
    // Location identity without the message: a reworded diagnostic at
    // the same place must keep matching its baseline entry. File paths
    // participate (basename only, so checkouts at different roots
    // agree); line numbers deliberately do not — they drift with every
    // unrelated edit.
    std::string fileKey = file;
    const std::size_t slash = fileKey.find_last_of('/');
    if (slash != std::string::npos)
        fileKey.erase(0, slash + 1);
    std::string out = id.empty() ? std::string("-") : id;
    out += ' ';
    out += pass.empty() ? "-" : pass;
    out += ' ';
    if (!format.empty())
        out += format;
    else if (!fileKey.empty())
        out += fileKey;
    else
        out += '-';
    out += ' ';
    out += segment.empty() ? "-" : segment;
    return out;
}

std::size_t
LintReport::errorCount() const
{
    std::size_t count = 0;
    for (const LintDiagnostic &d : diagnostics)
        count += d.severity == LintSeverity::Error;
    return count;
}

std::size_t
LintReport::warningCount() const
{
    return diagnostics.size() - errorCount();
}

std::string
LintReport::toString() const
{
    std::string out;
    for (const LintDiagnostic &d : diagnostics) {
        out += d.toString();
        out += '\n';
    }
    return out;
}

int
lintExitCode(const LintReport &report, bool werror)
{
    if (report.errorCount() > 0)
        return 1;
    if (report.warningCount() > 0)
        return werror ? 1 : 2;
    return 0;
}

std::string
lintRuleDescription(const std::string &id)
{
    struct Rule
    {
        const char *id;
        const char *description;
    };
    // The one authoritative id table (mirrored in README.md). Ids are
    // append-only: retire a rule by leaving a tombstone, never by
    // reusing its number.
    static const Rule rules[] = {
        {"COP001", "decode schedule declares no segments"},
        {"COP002", "schedule segment without a name"},
        {"COP003", "segment declares zero bank accesses per II"},
        {"COP004", "segment over-subscribes one BRAM bank's ports"},
        {"COP010", "decoder body schedules at a different II than the "
                   "model charges"},
        {"COP011", "decoder body pipeline depth differs from the "
                   "model's claim"},
        {"COP012", "comparator tree deeper than log2(p) (unbalanced)"},
        {"COP013", "comparator tree shallower than log2(p)"},
        {"COP020", "platform knob out of range (ports, depth, BRAM "
                   "latency)"},
        {"COP021", "codec hyperparameter out of range"},
        {"COP022", "codec hyperparameter does not divide a requested "
                   "partition size"},
        {"COP023", "codec width exceeds the partition size (clamped)"},
        {"COP024", "partition size is not a power of two"},
        {"COP030", "encoded tile violates its format grammar"},
        {"COP040", "closed-form cycle bound != dynamic walker"},
        {"COP041", "retired: the walker's row count is the IR "
                   "features' own, so the two cannot disagree"},
        {"COP050", "retired: each format declares its streams once, "
                   "so typed and wire sizes cannot disagree"},
        {"COP060", "accounting type narrower than 64 bits"},
        {"COP061", "cycle accounting can overflow uint64 within the "
                   "workload envelope"},
        {"COP062", "byte accounting can overflow uint64 within the "
                   "workload envelope"},
        {"COP063", "narrowing cast on an accounting value in a size or "
                   "cycle model"},
        {"COP070", "consecutive pipelined segments over-subscribe one "
                   "bank's ports"},
        {"COP071", "double-buffered working set exceeds device BRAM"},
        {"COP072", "double-buffered working set above 80% of device "
                   "BRAM"},
        {"COP080", "lock-order registry rank invalid or duplicated"},
        {"COP081", "lock-order registry name invalid or duplicated"},
        {"COP082", "bare std::mutex member without thread-safety "
                   "annotations or a documented exclusion"},
        {"COP090", "endpoint handled by the server but not documented"},
        {"COP091", "endpoint documented but not handled"},
        {"COP092", "wide-event fields drift from the documented set"},
        {"COP093", "exported metric names drift from the documented "
                   "set"},
        {"COP100", "second-stage compression stored more bytes than "
                   "raw"},
        {"COP110", "container header invariant broken (magic, "
                   "version, sizes, header hash)"},
        {"COP111", "container chunk directory inconsistent (offsets, "
                   "extent monotonicity, counts)"},
        {"COP112", "container content hash does not cover the "
                   "payload bytes"},
    };
    for (const Rule &rule : rules)
        if (id == rule.id)
            return rule.description;
    return "";
}

} // namespace copernicus
