/**
 * @file
 * Figure 10: memory-bandwidth utilization (useful bytes / all bytes,
 * higher is better) on random matrices across the density sweep at
 * 16x16 partitions.
 *
 * The paper's figure is first-stage only; a second table
 * re-characterizes it with second-stage stream compression
 * (compress/second_stage.hh) enabled, where utilization can only rise
 * because compression shrinks total bytes while useful bytes are
 * untouched. `--no-second-stage` skips the second run and reproduces
 * the original figure alone.
 */

#include <cstring>
#include <iostream>

#include "analysis/table_writer.hh"
#include "bench_common.hh"
#include "core/study.hh"

using namespace copernicus;

namespace {

void
printUtilization(const StudyResult &result,
                 const std::vector<std::string> &names)
{
    std::vector<std::string> header = {"density"};
    for (FormatKind kind : paperFormats())
        header.emplace_back(formatName(kind));
    TableWriter table(header);
    for (const auto &name : names) {
        std::vector<std::string> row = {name.substr(2)};
        for (const auto &r : result.rows)
            if (r.workload == name)
                row.push_back(
                    TableWriter::num(r.bandwidthUtilization, 4));
        table.addRow(row);
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::banner("Figure 10",
                      "memory bandwidth utilization vs density, "
                      "partition 16x16 (higher is better)", argc, argv);
    bool second_stage = true;
    for (int i = 1; i < argc; ++i)
        if (std::strcmp(argv[i], "--no-second-stage") == 0)
            second_stage = false;

    StudyConfig cfg;
    cfg.partitionSizes = {16};
    Study study(cfg);
    std::vector<std::string> names;
    for (auto &[name, matrix] : benchutil::randomWorkloads()) {
        names.push_back(name);
        study.addWorkload(name, std::move(matrix));
    }
    const auto result = study.run();

    std::cout << "second stage off (the paper's figure):\n";
    printUtilization(result, names);
    std::cout << "\nExpected shape: COO pinned at 0.33; LIL ahead of "
                 "ELL across the sweep and approaching 0.5 as density "
                 "grows; utilization rises with density for all "
                 "formats but COO.\n";

    if (second_stage) {
        StudyConfig compressed_cfg = cfg;
        compressed_cfg.hls.secondStageCompression = true;
        Study compressed(compressed_cfg);
        for (auto &[name, matrix] : benchutil::randomWorkloads())
            compressed.addWorkload(name, std::move(matrix));
        const auto on = compressed.run();
        std::cout << "\nsecond stage on (per-stream codec selection, "
                     "STORE fallback):\n";
        printUtilization(on, names);
        std::cout << "\nExpected shape: utilization at or above the "
                     "first table everywhere — STORE passthrough "
                     "bounds the loss at zero — with the largest "
                     "gains at low density where index/offset "
                     "streams are repetitive.\n";
    }
    return 0;
}
