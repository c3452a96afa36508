#include "analysis/pass_manager.hh"

#include <set>
#include <utility>

#include "analysis/capacity_pass.hh"
#include "analysis/compress_pass.hh"
#include "analysis/overflow_pass.hh"
#include "analysis/protocol_pass.hh"
#include "analysis/store_pass.hh"
#include "analysis/thread_safety_pass.hh"

namespace copernicus {

namespace {

void
runSpecPass(const LintOptions &options, LintReport &report)
{
    for (FormatKind kind : admittedFormats(options.params))
        checkSpecStructure(scheduleSpec(kind), options.hls, report);
}

void
runBodyPass(const LintOptions &options, LintReport &report)
{
    for (FormatKind kind : admittedFormats(options.params)) {
        const ScheduleSpec &spec = scheduleSpec(kind);
        if (!spec.hasInnerBody)
            continue;
        // A zero partition has no decoder body to schedule; the
        // contract pass reports it (COP022).
        for (Index p : options.partitionSizes)
            if (p != 0)
                checkDecoderBody(spec,
                                 decoderBodyFor(kind, options.params, p),
                                 p, options.hls, report);
    }
}

void
runContractPass(const LintOptions &options, LintReport &report)
{
    checkContracts(options.params, options.hls, options.partitionSizes,
                   report);
}

PassManager
buildStandard()
{
    PassManager manager;

    manager.add({"spec",
                 "schedule specs well-formed, segment port budgets",
                 {"COP001", "COP002", "COP003", "COP004"},
                 runSpecPass});
    manager.add({"body",
                 "spec claims vs hlsc-scheduled decoder bodies",
                 {"COP010", "COP011", "COP012", "COP013"},
                 runBodyPass});
    manager.add({"contract",
                 "codec hyperparameter and platform-knob contracts",
                 {"COP020", "COP021", "COP022", "COP023", "COP024"},
                 runContractPass});
    manager.add({"grammar",
                 "encoded tiles satisfy their format grammars",
                 {"COP030"},
                 nullptr,
                 checkTileGrammar});
    manager.add({"oracle",
                 "closed-form cycle model vs the dynamic walker",
                 {"COP040"},
                 nullptr,
                 checkTileOracle});
    manager.add({"overflow",
                 "uint64 accounting proven against the workload "
                 "envelope; narrowing-cast scan",
                 {"COP060", "COP061", "COP062", "COP063"},
                 runOverflowPass});
    manager.add({"capacity",
                 "pipelined-chain port pressure and double-buffered "
                 "BRAM budgets",
                 {"COP070", "COP071", "COP072"},
                 runCapacityPass});
    manager.add({"thread-safety",
                 "lock-order registry sanity and bare-mutex header "
                 "scan",
                 {"COP080", "COP081", "COP082"},
                 runThreadSafetyPass});
    manager.add({"protocol",
                 "serve surface (endpoints, wide events, metrics) vs "
                 "its documentation",
                 {"COP090", "COP091", "COP092", "COP093"},
                 runProtocolPass});
    manager.add({"compress",
                 "second stage never stores more than raw "
                 "(storedBytes <= rawBytes)",
                 {"COP100"},
                 nullptr,
                 checkTileCompression});
    manager.add({"store",
                 ".cbm container invariants (header, chunk "
                 "directory, content hash) with defect injection",
                 {"COP110", "COP111", "COP112"},
                 runStorePass});
    return manager;
}

} // namespace

const PassManager &
PassManager::standard()
{
    static const PassManager manager = buildStandard();
    return manager;
}

const PassInfo *
PassManager::find(const std::string &name) const
{
    for (const PassInfo &pass : registered)
        if (pass.name == name)
            return &pass;
    return nullptr;
}

LintReport
PassManager::run(const LintOptions &options) const
{
    std::vector<std::string> every;
    for (const PassInfo &pass : registered)
        every.push_back(pass.name);
    return run(options, every);
}

LintReport
PassManager::run(const LintOptions &options,
                 const std::vector<std::string> &selection) const
{
    const std::set<std::string> wanted(selection.begin(),
                                       selection.end());
    std::vector<const PassInfo *> selected;
    for (const PassInfo &pass : registered)
        if (wanted.count(pass.name) != 0)
            selected.push_back(&pass);

    // One report per selected pass, spliced in registration order, so
    // the shared sweep leaves each pass's findings in its own place.
    std::vector<LintReport> reports(selected.size());
    bool sweep = false;
    for (std::size_t i = 0; i < selected.size(); ++i) {
        if (selected[i]->run)
            selected[i]->run(options, reports[i]);
        sweep = sweep || selected[i]->checkTile != nullptr;
    }
    if (sweep)
        forEachLintTile(
            options.params, options.partitionSizes,
            [&](const FormatCodec &codec, const Tile &tile) {
                const auto encoded = codec.encode(tile);
                for (std::size_t i = 0; i < selected.size(); ++i)
                    if (selected[i]->checkTile)
                        selected[i]->checkTile(options, tile, *encoded,
                                               reports[i]);
            });

    LintReport report;
    for (LintReport &part : reports)
        for (LintDiagnostic &d : part.diagnostics)
            report.add(std::move(d));
    for (const std::string &name : wanted)
        if (find(name) == nullptr)
            report.error("driver", "",
                         "unknown pass '" + name +
                             "' (see --list-passes)");
    return report;
}

LintReport
runLint(const LintOptions &options)
{
    return PassManager::standard().run(options);
}

} // namespace copernicus
