/**
 * @file
 * copernicus_lint — multi-pass static analyzer for the cycle model.
 *
 *   copernicus_lint                  # every pass at p = 8,16,32
 *   copernicus_lint 8,16             # choose partition sizes
 *   copernicus_lint --list-passes    # show the pass table and exit
 *   copernicus_lint --passes=a,b     # run only the named passes
 *   copernicus_lint --json           # machine-readable report
 *   copernicus_lint --sarif=PATH     # also write SARIF 2.1.0
 *   copernicus_lint --baseline=PATH  # suppress accepted findings
 *   copernicus_lint --werror         # warnings fail the build
 *   copernicus_lint --cbm=PATH       # also lint a real .cbm artifact
 *
 * `--passes=` is the only way to choose passes. Without it the tool
 * runs every analyzer pass over the full format registry: schedule-spec
 * structure, hlsc decoder-body cross-checks, hyperparameter contracts,
 * encoded-tile grammar, the closed-form-vs-walker cycle oracle,
 * symbolic overflow analysis of the cycle/byte accounting, BRAM
 * capacity dataflow, thread-safety contracts, serve protocol
 * conformance, the compression size invariant and .cbm container
 * integrity. Exit code: 0 clean, 1 errors (or warnings with --werror,
 * or an unknown flag, a `--passes=` that names no pass or a malformed
 * partition-size list), 2 warnings.
 */

#include <cstdio>
#include <iostream>
#include <sstream>
#include <string>

#include "analysis/lint_driver.hh"
#include "common/status.hh"
#include "serve/protocol_doc.hh"

using namespace copernicus;

namespace {

std::vector<std::string>
splitNames(const std::string &arg)
{
    std::vector<std::string> names;
    std::istringstream in(arg);
    std::string token;
    while (std::getline(in, token, ','))
        if (!token.empty())
            names.push_back(token);
    return names;
}

int
lintMain(int argc, char **argv)
{
    LintDriverOptions options;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg.rfind("--cbm=", 0) == 0)
            options.lint.storeContainers.push_back(arg.substr(6));
        else if (arg == "--list-passes")
            options.listPasses = true;
        else if (arg == "--json")
            options.json = true;
        else if (arg == "--werror")
            options.werror = true;
        else if (arg.rfind("--passes=", 0) == 0) {
            // An empty list means every pass, which --passes= never
            // asks for.
            options.passes = splitNames(arg.substr(9));
            if (options.passes.empty())
                fatal("'" + arg + "' names no pass (see --list-passes)");
        }
        else if (arg.rfind("--sarif=", 0) == 0)
            options.sarifPath = arg.substr(8);
        else if (arg.rfind("--baseline=", 0) == 0)
            options.baselinePath = arg.substr(11);
        else if (arg.rfind("--", 0) == 0)
            fatal("unknown option '" + arg + "'");
        else
            options.lint.partitionSizes = parsePartitionSizes(arg);
    }

    // The protocol-conformance pass diffs the serve layer's documented
    // surface against what the implementation exposes; the surface
    // must outlive the run.
    const ProtocolSurface surface = collectServeProtocolSurface();
    options.lint.protocol = &surface;

    if (!options.json && !options.listPasses)
        std::printf("copernicus_lint — multi-pass schedule/format "
                    "analyzer\n");
    return runLintDriver(options, std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    // A FatalError is a usage error (an unknown flag, an empty pass
    // list, a malformed partition-size list): report it and exit 1
    // instead of aborting.
    try {
        return lintMain(argc, argv);
    } catch (const FatalError &error) {
        std::fprintf(stderr, "copernicus_lint: error: %s\n",
                     error.what());
        return 1;
    }
}
