/**
 * @file
 * perfbench_runner: run one benchmark workload and print its metrics.
 *
 *   perfbench_runner --workload <name> --seed <n> --seconds <s>
 *                    --trace <0|1> [--expect-digest <hex>]
 *                    [--run-dir <dir>]
 *
 * Human-readable lines come first; the last line of standard output is
 * one JSON object {"correct", "attempted", "failed", "metrics"}. With
 * --trace 0 the metrics are the end-to-end set, with --trace 1 the
 * per-layer set. A set-up failure exits non-zero without a result.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <filesystem>
#include <map>
#include <string>

#include "common.hh"

using namespace perfbench;

namespace {

void
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench_runner --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--expect-digest <hex>] "
                 "[--run-dir <dir>]\n");
    std::exit(2);
}

std::string
jsonNumber(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof(buf), "%.17g", v);
    return buf;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const std::string value = argv[i + 1];
        if (flag == "--workload")
            opts.workload = value;
        else if (flag == "--seed")
            opts.seed = std::strtoull(value.c_str(), nullptr, 10);
        else if (flag == "--seconds")
            opts.seconds = std::strtod(value.c_str(), nullptr);
        else if (flag == "--trace")
            opts.trace = value == "1";
        else if (flag == "--expect-digest")
            opts.expectDigest = value;
        else if (flag == "--run-dir")
            opts.runDir = value;
        else
            usage();
    }
    if (argc % 2 == 0 || opts.seconds <= 0)
        usage();

    const std::map<std::string, void (*)(const Options &, Report &)>
        workloads = {
            {"sweep_catalog", runSweepCatalog},
            {"sweep_synth_compress", runSweepSynthCompress},
            {"serve_mix", runServeMix},
            {"ingest_cbm", runIngestCbm},
        };
    const auto it = workloads.find(opts.workload);
    if (it == workloads.end()) {
        std::fprintf(stderr, "unknown workload '%s'\n",
                     opts.workload.c_str());
        return 2;
    }

    Report report;
    try {
        std::filesystem::create_directories(opts.runDir);
        it->second(opts, report);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "%s: %s\n", opts.workload.c_str(), e.what());
        return 1;
    }
    if (report.attempted == 0) {
        std::fprintf(stderr, "%s: no operation ran\n",
                     opts.workload.c_str());
        return 1;
    }

    std::printf("== %s (seed %llu, %s) ==\n", opts.workload.c_str(),
                static_cast<unsigned long long>(opts.seed),
                opts.trace ? "traced" : "untraced");
    for (const std::string &line : report.lines)
        std::printf("%s\n", line.c_str());
    for (const std::string &problem : report.problems)
        std::printf("FAILED: %s\n", problem.c_str());
    const double errorRate = static_cast<double>(report.failed) /
                             static_cast<double>(report.attempted);
    std::printf("%-32s %18.6g %s\n", "error_rate", errorRate,
                "ratio");
    std::string json = "{\"correct\": ";
    json += report.failed == 0 ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(report.attempted) +
            ", \"failed\": " + std::to_string(report.failed) +
            ", \"metrics\": {";
    bool first = true;
    for (const Report::Metric &m : report.metrics) {
        const double value = std::isfinite(m.value) ? m.value : 0.0;
        std::printf("%-32s %18.6g %s\n", m.name.c_str(), value,
                    m.unit.c_str());
        json += first ? "" : ", ";
        first = false;
        json += "\"" + m.name + "\": {\"value\": " + jsonNumber(value) +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    return 0;
}
