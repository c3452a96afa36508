/**
 * @file
 * The three-stage streaming pipeline of Figure 2: memory-read, compute
 * (decompress + dot), memory-write, evaluated over the non-zero
 * partitions of a matrix.
 *
 * Stages are pipelined across partitions, so in steady state each
 * partition costs the maximum of its three stage latencies and the whole
 * run adds one fill and one drain. The simulator reports per-partition
 * breakdowns and the aggregate metrics Section 4.2 defines: memory and
 * compute latency, balance ratio, throughput and memory-bandwidth
 * utilization.
 */

#ifndef COPERNICUS_PIPELINE_STREAM_PIPELINE_HH
#define COPERNICUS_PIPELINE_STREAM_PIPELINE_HH

#include <vector>

#include "formats/registry.hh"
#include "hls/hls_config.hh"
#include "matrix/partitioner.hh"
#include "trace/trace_sink.hh"

namespace copernicus {

/** Latency breakdown for one non-zero partition. */
struct PartitionTiming
{
    /** Memory-read stage: transfer of the compressed partition. */
    Cycles memoryCycles = 0;

    /** Compute stage: decompression plus dot products. */
    Cycles computeCycles = 0;

    /** Memory-write stage: streaming the partial result back. */
    Cycles writeCycles = 0;

    /** Decompression share of the compute stage. */
    Cycles decompressCycles = 0;

    /** Rows handed to the dot engine. */
    Index rowsProduced = 0;

    /** sigma (Eq. 1) of this partition. */
    double sigma = 0;

    /** Bytes of this partition crossing the read interface. */
    Bytes totalBytes = 0;

    /** Value-payload bytes of this partition. */
    Bytes usefulBytes = 0;

    /** Stage bound of the partition in steady state. */
    Cycles
    bottleneckCycles() const
    {
        return std::max(memoryCycles,
                        std::max(computeCycles, writeCycles));
    }
};

/**
 * Price one partition: the single pricing rule every pipeline model
 * (runPipeline, runEventSim, runParallel) and planFormats share.
 *
 * Encodes @p tile with @p codec, checks its grammar when
 * grammarValidationEnabled(), runs the decompressor model through
 * verifyDecompression() (a decode that differs from @p tile is a
 * panic; no decoded tile is built) and times the read of the
 * first-stage streams, or of their second-stage images under
 * `secondStageCompression`, plus the vector segment under
 * `streamVectorOperand`. totalBytes covers the partition's streams
 * only, never the vector segment.
 */
PartitionTiming timePartition(const Tile &tile, const FormatCodec &codec,
                              const HlsConfig &config);

/** Aggregate result of streaming one matrix through the platform. */
struct PipelineResult
{
    /** Format the partitions were encoded in. */
    FormatKind format = FormatKind::Dense;

    /** Partition size p. */
    Index partitionSize = 0;

    /** Per-partition breakdowns, in streaming order. */
    std::vector<PartitionTiming> partitions;

    /** End-to-end cycles including pipeline fill and drain. */
    Cycles totalCycles = 0;

    /** Sum of memory-read cycles. */
    Cycles totalMemoryCycles = 0;

    /** Sum of compute cycles. */
    Cycles totalComputeCycles = 0;

    /** Bytes transferred in (data + metadata). */
    Bytes totalBytes = 0;

    /** Value-payload bytes transferred in. */
    Bytes totalUsefulBytes = 0;

    /** Mean of per-partition memory/compute ratios (Section 4.2). */
    double balanceRatio = 0;

    /** Mean per-partition sigma. */
    double meanSigma = 0;

    /** End-to-end seconds at the configured clock. */
    double seconds = 0;

    /** Bytes processed per second (Section 4.2's throughput). */
    double throughputBytesPerSec = 0;

    /** usefulBytes / totalBytes. */
    double bandwidthUtilization = 0;
};

/**
 * Stream every non-zero partition of @p parts through the platform with
 * tiles encoded in @p kind.
 *
 * @param parts Partitioning of the operand matrix.
 * @param kind Compression format under study.
 * @param config Platform parameters.
 * @param registry Codec source (paper defaults).
 * @param sink Timeline sink, resolved by resolveTraceSink() — the
 *        parallel sweep paths pass `&noTraceSink()` so workers never
 *        touch the single-threaded writer. The analytic model has no
 *        exact event times, so partitions are laid out on a
 *        steady-state clock — each slot advances by its bottleneck
 *        stage — with sigma and bw_util counters per partition. Never
 *        affects the returned metrics.
 * @return Aggregate and per-partition metrics.
 */
PipelineResult runPipeline(const Partitioning &parts, FormatKind kind,
                           const HlsConfig &config = HlsConfig(),
                           const FormatRegistry &registry =
                               defaultRegistry(),
                           TraceSink *sink = nullptr);

/**
 * Stream with a per-partition format choice (one entry per non-zero
 * tile, in streaming order). The result's `format` field reports the
 * most frequent choice; per-partition formats drive everything else.
 *
 * This models an accelerator whose decompress stage instantiates
 * several decoders and selects per partition — the natural extension
 * of the paper's study once the per-format trade-offs are known.
 */
PipelineResult runPipelineMixed(const Partitioning &parts,
                                const std::vector<FormatKind> &perTile,
                                const HlsConfig &config = HlsConfig(),
                                const FormatRegistry &registry =
                                    defaultRegistry(),
                                TraceSink *sink = nullptr);

} // namespace copernicus

#endif // COPERNICUS_PIPELINE_STREAM_PIPELINE_HH
