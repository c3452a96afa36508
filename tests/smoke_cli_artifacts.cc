/**
 * @file
 * End-to-end smoke test: runs a binary that takes the shared
 * observability flags (copernicus_cli or a bench) with --trace,
 * --stats-json and --profile, and validates the JSON artifacts it
 * writes with the bundled parser — no external JSON dependency.
 * Registered with ctest as
 *
 *   smoke_cli_artifacts <binary> [extra-span-name ...]
 *
 * The profile group must report the Study::run spans (study.run,
 * study.partition, study.encode) plus every extra span name given.
 * The artifact names derive from the binary's name, so several
 * registrations can run under ctest -j in one directory.
 */

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "common/json.hh"

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr, "FAIL: cannot read %s\n", path.c_str());
        std::exit(1);
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return buf.str();
}

void
checkArtifact(const std::string &path, const char *needle)
{
    const std::string doc = slurp(path);
    if (!copernicus::jsonValid(doc)) {
        std::fprintf(stderr, "FAIL: %s is not valid JSON\n",
                     path.c_str());
        std::exit(1);
    }
    if (doc.find(needle) == std::string::npos) {
        std::fprintf(stderr, "FAIL: %s lacks %s\n", path.c_str(),
                     needle);
        std::exit(1);
    }
    std::printf("ok: %s (%zu bytes)\n", path.c_str(), doc.size());
}

/** The stat names of the stats document's "profile" group. */
std::set<std::string>
profileStatNames(const std::string &path)
{
    copernicus::JsonValue root;
    if (!copernicus::parseJson(slurp(path), root)) {
        std::fprintf(stderr, "FAIL: cannot parse %s\n", path.c_str());
        std::exit(1);
    }
    std::set<std::string> names;
    const copernicus::JsonValue *groups = root.find("groups");
    if (groups == nullptr)
        return names;
    for (const copernicus::JsonValue &group : groups->elements) {
        const copernicus::JsonValue *stats = group.find("stats");
        if (group.stringOr("group", "") != "profile" || stats == nullptr)
            continue;
        for (const copernicus::JsonValue &stat : stats->elements)
            names.insert(stat.stringOr("name", ""));
    }
    return names;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2) {
        std::fprintf(stderr, "usage: smoke_cli_artifacts <binary> "
                             "[extra-span-name ...]\n");
        return 2;
    }

    const std::string binary = argv[1];
    const std::string stem =
        "smoke_" + binary.substr(binary.find_last_of('/') + 1);
    const std::string trace = stem + "_trace.json";
    const std::string stats = stem + "_stats.json";
    const std::string output = stem + ".out";
    const std::string cmd = binary + " --trace " + trace +
                            " --stats-json " + stats + " --profile > " +
                            output + " 2>&1";
    std::printf("running: %s\n", cmd.c_str());
    const int rc = std::system(cmd.c_str());
    if (rc != 0) {
        std::fprintf(stderr, "FAIL: %s exited with %d; output:\n%s\n",
                     binary.c_str(), rc, slurp(output).c_str());
        return 1;
    }

    checkArtifact(trace, "\"traceEvents\"");
    checkArtifact(stats, "\"groups\"");

    // --profile reports span totals under the span names.
    std::vector<std::string> spans = {"study.run", "study.partition",
                                      "study.encode"};
    spans.insert(spans.end(), argv + 2, argv + argc);
    const std::set<std::string> names = profileStatNames(stats);
    for (const std::string &span : spans) {
        for (const char *suffix : {".calls", ".seconds", ".max_seconds"}) {
            if (names.count(span + suffix) == 0) {
                std::fprintf(stderr,
                             "FAIL: %s's profile group lacks %s%s\n",
                             stats.c_str(), span.c_str(), suffix);
                return 1;
            }
        }
    }
    std::printf("smoke_cli_artifacts: all checks passed\n");
    return 0;
}
