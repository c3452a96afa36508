/**
 * @file
 * Quickstart: the 60-second tour of the Copernicus public API.
 *
 *  1. Build a sparse matrix (or read one from MatrixMarket).
 *  2. Partition it and compress a tile in every format.
 *  3. Run SpMV on the compressed tiles.
 *  4. Characterize the formats on the modelled FPGA platform.
 */

#include <cstdio>
#include <iostream>

#include "analysis/table_writer.hh"
#include "common/rng.hh"
#include "core/study.hh"
#include "kernels/spmv.hh"
#include "workloads/generators.hh"

using namespace copernicus;

int
main()
{
    std::printf("Copernicus quickstart\n=====================\n\n");

    // 1. A small random sparse matrix (could be readMatrixMarketFile).
    Rng rng(2021);
    const TripletMatrix matrix = randomMatrix(256, 0.02, rng);
    std::printf("matrix: %u x %u, %zu non-zeros (density %.4f)\n\n",
                matrix.rows(), matrix.cols(), matrix.nnz(),
                matrix.density());

    // 2. Partition into 16x16 tiles; all-zero tiles are elided.
    const Partitioning parts = partition(matrix, 16);
    std::printf("partitioned into %zu non-zero tiles (%zu all-zero "
                "tiles skipped)\n\n",
                parts.tiles.size(), parts.zeroTiles);

    // 3. Compress the first tile in every format and compare bytes.
    const Tile &tile = parts.tiles.front();
    TableWriter bytes({"format", "total bytes", "useful bytes",
                       "bandwidth util"});
    for (FormatKind kind : paperFormats()) {
        const auto encoded = defaultCodec(kind).encode(tile);
        bytes.addRow({std::string(formatName(kind)),
                      std::to_string(encoded->totalBytes()),
                      std::to_string(encoded->usefulBytes()),
                      TableWriter::num(encoded->bandwidthUtilization(),
                                       3)});
    }
    bytes.print(std::cout);

    // 4. SpMV on the compressed tiles: each is decoded by its codec and
    //    multiplied on the dot engine, bit-identically in every format.
    std::vector<Value> x(matrix.cols(), 1.0f);
    const auto y = spmvPartitioned(parts, FormatKind::CSR, x);
    double checksum = 0;
    for (Index r = 0; r < matrix.rows(); ++r)
        checksum += y[r];
    std::printf("\nSpMV checksum over CSR tiles: %.4f\n\n", checksum);

    // 5. Full characterization on the modelled platform.
    StudyConfig cfg;
    cfg.partitionSizes = {16};
    Study study(cfg);
    study.addWorkload("demo", matrix);
    TableWriter metrics({"format", "sigma", "balance", "throughput MB/s",
                         "bw util", "dyn power W"});
    for (const auto &row : study.run().rows) {
        metrics.addRow({std::string(formatName(row.format)),
                        TableWriter::num(row.meanSigma, 3),
                        TableWriter::num(row.balanceRatio, 3),
                        TableWriter::num(row.throughput / 1e6, 4),
                        TableWriter::num(row.bandwidthUtilization, 3),
                        TableWriter::num(row.power.dynamicW(), 2)});
    }
    metrics.print(std::cout);
    return 0;
}
