#include "solvers/accelerated.hh"

#include "common/math.hh"
#include "common/status.hh"
#include "matrix/csr_matrix.hh"

namespace copernicus {

PlatformSolveEstimate
estimateIterativeSolve(const TripletMatrix &matrix, FormatKind kind,
                       Index partitionSize, std::size_t iterations,
                       std::size_t vectorOpsPerIteration,
                       const HlsConfig &config)
{
    COPERNICUS_FATAL_IF(matrix.rows() != matrix.cols(),
                        "estimateIterativeSolve requires a square matrix");

    PlatformSolveEstimate estimate;
    estimate.format = kind;
    estimate.partitionSize = partitionSize;
    estimate.iterations = iterations;

    const auto parts = partition(matrix, partitionSize);
    const auto pipeline = runPipeline(parts, kind, config);
    estimate.spmvCyclesPerIteration = pipeline.totalCycles;

    // Each length-n vector op runs through the p-wide engine at one
    // p-element chunk per cycle plus the arithmetic drain.
    const Cycles chunk_cycles = ceilDiv(matrix.rows(), partitionSize);
    estimate.vectorCyclesPerIteration =
        Cycles(vectorOpsPerIteration) *
        (chunk_cycles + config.dotLatency(partitionSize));

    estimate.totalCycles =
        Cycles(iterations) * (estimate.spmvCyclesPerIteration +
                              estimate.vectorCyclesPerIteration);
    estimate.seconds = static_cast<double>(estimate.totalCycles) *
                       config.secondsPerCycle();
    return estimate;
}

AcceleratedCgResult
acceleratedCg(const TripletMatrix &matrix, const std::vector<Value> &b,
              FormatKind kind, Index partitionSize, double tolerance,
              std::size_t maxIterations, const HlsConfig &config)
{
    AcceleratedCgResult result;
    const CsrMatrix a(matrix);
    result.solve = conjugateGradient(a, b, tolerance, maxIterations);
    result.estimate = estimateIterativeSolve(
        matrix, kind, partitionSize,
        std::max<std::size_t>(result.solve.iterations, 1), 5, config);
    return result;
}

} // namespace copernicus
