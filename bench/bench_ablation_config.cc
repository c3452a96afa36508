/**
 * @file
 * Ablations of the model parameters DESIGN.md calls out: ELL's
 * compressed-width floor (which moves bytes and BRAM, not cycles), the
 * number of AXI streamlines, and the BRAM read latency. Each sweep
 * holds the workload fixed (a mid-density random matrix at 16x16
 * partitions) and varies one knob.
 */

#include <iostream>

#include "analysis/table_writer.hh"
#include "bench_common.hh"
#include "core/study.hh"

using namespace copernicus;

namespace {

TripletMatrix
workload()
{
    Rng rng(benchutil::benchSeed + 7);
    return randomMatrix(benchutil::syntheticDim() / 2, 0.05, rng);
}

void
ellWidthSweep()
{
    std::cout << "-- ELL compressed-width floor (paper fixes 6; wider "
                 "floors cost bandwidth and BRAM, not cycles) --\n";
    TableWriter table({"ell width", "sigma", "bw util",
                       "memory cycles", "BRAM_18K", "dyn power (W)"});
    for (Index width : {2u, 4u, 6u, 8u, 16u}) {
        StudyConfig cfg;
        cfg.partitionSizes = {16};
        cfg.formats = {FormatKind::ELL};
        cfg.formatParams.ellMinWidth = width;
        Study study(cfg);
        study.addWorkload("random", workload());
        const auto row = study.run().rows.front();
        table.addRow({std::to_string(width),
                      TableWriter::num(row.meanSigma, 4),
                      TableWriter::num(row.bandwidthUtilization, 4),
                      std::to_string(row.memoryCycles),
                      TableWriter::num(row.resources.bram18k, 3),
                      TableWriter::num(row.power.dynamicW(), 3)});
    }
    table.print(std::cout);
    std::cout << '\n';
}

void
streamlineSweep()
{
    std::cout << "-- AXI streamlines (memory-side parallelism) --\n";
    TableWriter table({"lanes", "format", "memory cycles",
                       "balance ratio"});
    for (Index lanes : {1u, 2u, 4u}) {
        StudyConfig cfg;
        cfg.partitionSizes = {16};
        cfg.formats = {FormatKind::CSR, FormatKind::COO};
        cfg.hls.streamlines = lanes;
        Study study(cfg);
        study.addWorkload("random", workload());
        for (const auto &row : study.run().rows) {
            table.addRow({std::to_string(lanes),
                          std::string(formatName(row.format)),
                          std::to_string(row.memoryCycles),
                          TableWriter::num(row.balanceRatio, 4)});
        }
    }
    table.print(std::cout);
    std::cout << '\n';
}

void
bramLatencySweep()
{
    std::cout << "-- BRAM read latency (compute-side cost of the "
                 "offsets accesses) --\n";
    TableWriter table({"bram latency", "format", "sigma",
                       "compute cycles"});
    for (Cycles latency : {1u, 2u, 3u}) {
        StudyConfig cfg;
        cfg.partitionSizes = {16};
        cfg.formats = {FormatKind::CSR, FormatKind::LIL,
                       FormatKind::DIA};
        cfg.hls.bramReadLatency = latency;
        Study study(cfg);
        study.addWorkload("random", workload());
        for (const auto &row : study.run().rows) {
            table.addRow({std::to_string(latency),
                          std::string(formatName(row.format)),
                          TableWriter::num(row.meanSigma, 4),
                          std::to_string(row.computeCycles)});
        }
    }
    table.print(std::cout);
    std::cout << '\n';
}

void
dramModelSweep()
{
    std::cout << "-- memory model: flat burst cost vs DDR3 timing --\n";
    TableWriter table({"memory model", "format", "memory cycles",
                       "balance ratio", "latency (us)"});
    for (bool dram : {false, true}) {
        StudyConfig cfg;
        cfg.partitionSizes = {16};
        cfg.formats = {FormatKind::Dense, FormatKind::CSR,
                       FormatKind::COO};
        cfg.hls.useDramModel = dram;
        Study study(cfg);
        study.addWorkload("random", workload());
        for (const auto &row : study.run().rows) {
            table.addRow({dram ? "ddr3" : "flat",
                          std::string(formatName(row.format)),
                          std::to_string(row.memoryCycles),
                          TableWriter::num(row.balanceRatio, 4),
                          TableWriter::num(row.seconds * 1e6, 4)});
        }
    }
    table.print(std::cout);
    std::cout << '\n';
}

void
extensionFormatsSweep()
{
    std::cout << "-- Extension formats beside their paper siblings "
                 "(Section 2's variants) --\n";
    TableWriter table({"format", "sigma", "bw util", "latency (ms)"});
    StudyConfig cfg;
    cfg.partitionSizes = {16};
    cfg.formats = {FormatKind::COO,  FormatKind::DOK,
                   FormatKind::ELL,  FormatKind::SELL,
                   FormatKind::SELLCS, FormatKind::ELLCOO,
                   FormatKind::CSR,  FormatKind::JDS,
                   FormatKind::BITMAP};
    Study study(cfg);
    study.addWorkload("random", workload());
    for (const auto &row : study.run().rows) {
        table.addRow({std::string(formatName(row.format)),
                      TableWriter::num(row.meanSigma, 4),
                      TableWriter::num(row.bandwidthUtilization, 4),
                      TableWriter::num(row.seconds * 1e3, 4)});
    }
    table.print(std::cout);
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::banner("Ablations",
                      "model-parameter sweeps on a density-0.05 random "
                      "matrix at 16x16 partitions", argc, argv);
    ellWidthSweep();
    streamlineSweep();
    bramLatencySweep();
    dramModelSweep();
    extensionFormatsSweep();
    return 0;
}
