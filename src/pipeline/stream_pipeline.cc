#include "pipeline/stream_pipeline.hh"

#include <algorithm>
#include <map>

#include "common/status.hh"
#include "compress/second_stage.hh"
#include "formats/validate.hh"
#include "hls/axi.hh"
#include "hls/decompressor.hh"

namespace copernicus {

namespace {

/** Shared core: stream tiles with a per-tile format lookup. */
PipelineResult
runImpl(const Partitioning &parts,
        const std::vector<FormatKind> &perTile, const HlsConfig &config,
        const FormatRegistry &registry, TraceSink *trace)
{
    PipelineResult result;
    result.partitionSize = parts.partitionSize;

    const Index p = parts.partitionSize;
    // The partial output vector streamed back per partition.
    const Bytes out_bytes = Bytes(p) * valueBytes;

    double balance_sum = 0;
    double sigma_sum = 0;
    Cycles fill_first = 0;
    Cycles drain_last = 0;
    // Steady-state clock for the emitted timeline: the first read is
    // exposed, then each partition's slot advances by its bottleneck.
    Cycles trace_clock = 0;
    for (std::size_t i = 0; i < parts.tiles.size(); ++i) {
        const Tile &tile = parts.tiles[i];
        const auto encoded = registry.codec(perTile[i]).encode(tile);
        if (grammarValidationEnabled()) {
            const GrammarReport report = validateEncodedTile(*encoded);
            panicIf(!report.ok(),
                    "pipeline: encoded tile violates its format "
                    "grammar:\n" +
                        report.toString());
        }
        const auto decomp = simulateDecompression(*encoded, config);
        panicIf(!(decomp.decoded == tile),
                "pipeline: decompressor model corrupted a tile");

        PartitionTiming timing;
        auto streams = encoded->streams();
        timing.totalBytes = encoded->totalBytes();
        if (config.secondStageCompression) {
            // The DDR interface sees post-compression stream images;
            // useful bytes are untouched, so utilization can only rise.
            const TileCompression comp = compressTile(*encoded);
            streams = comp.storedStreamBytes();
            timing.totalBytes = comp.storedBytes();
        }
        if (config.streamVectorOperand)
            streams.push_back(Bytes(p) * valueBytes);
        timing.memoryCycles = transferCycles(streams, config);
        timing.decompressCycles = decomp.decompressCycles;
        timing.rowsProduced = decomp.rowsProduced;
        timing.computeCycles = computeCycles(decomp, config);
        timing.writeCycles = writebackCycles(out_bytes, config);
        timing.sigma = sigmaOverhead(decomp, p, config);
        timing.usefulBytes = encoded->usefulBytes();

        result.totalMemoryCycles += timing.memoryCycles;
        result.totalComputeCycles += timing.computeCycles;
        result.totalBytes += timing.totalBytes;
        result.totalUsefulBytes += timing.usefulBytes;
        result.totalCycles += timing.bottleneckCycles();
        balance_sum += timing.computeCycles == 0
                           ? 0.0
                           : static_cast<double>(timing.memoryCycles) /
                                 static_cast<double>(timing.computeCycles);
        sigma_sum += timing.sigma;

        if (result.partitions.empty())
            fill_first = timing.memoryCycles;
        drain_last = timing.writeCycles;

        if (trace != nullptr) {
            if (result.partitions.empty())
                trace_clock = fill_first;
            const std::string name =
                "p" + std::to_string(result.partitions.size());
            trace->durationEvent(
                "read", name, trace_clock,
                trace_clock + timing.memoryCycles);
            trace->durationEvent(
                "compute", name, trace_clock,
                trace_clock + timing.computeCycles);
            trace->durationEvent(
                "write", name, trace_clock,
                trace_clock + timing.writeCycles);
            const Cycles slot_end =
                trace_clock + timing.bottleneckCycles();
            trace->counterEvent("sigma", slot_end, timing.sigma);
            trace->counterEvent(
                "bw_util", slot_end,
                timing.totalBytes == 0
                    ? 0.0
                    : static_cast<double>(timing.usefulBytes) /
                          static_cast<double>(timing.totalBytes));
            trace_clock = slot_end;
        }

        result.partitions.push_back(timing);
    }

    if (!result.partitions.empty()) {
        // Steady state costs max(stage) per partition; the first
        // partition's read and the last one's write are exposed.
        result.totalCycles += fill_first + drain_last;
        const auto count = static_cast<double>(result.partitions.size());
        result.balanceRatio = balance_sum / count;
        result.meanSigma = sigma_sum / count;
    }

    result.seconds = static_cast<double>(result.totalCycles) *
                     config.secondsPerCycle();
    result.throughputBytesPerSec =
        result.seconds == 0.0
            ? 0.0
            : static_cast<double>(result.totalBytes) / result.seconds;
    result.bandwidthUtilization =
        result.totalBytes == 0
            ? 0.0
            : static_cast<double>(result.totalUsefulBytes) /
                  static_cast<double>(result.totalBytes);
    return result;
}

} // namespace

PipelineResult
runPipeline(const Partitioning &parts, FormatKind kind,
            const HlsConfig &config, const FormatRegistry &registry,
            TraceSink *sink)
{
    TraceSink *trace = sink != nullptr ? sink : activeTraceSink();
    if (trace == &noTraceSink())
        trace = nullptr;
    if (trace != nullptr) {
        trace->beginScope("pipeline." +
                          std::string(formatName(kind)) + ".p" +
                          std::to_string(parts.partitionSize));
    }
    const std::vector<FormatKind> per_tile(parts.tiles.size(), kind);
    PipelineResult result = runImpl(parts, per_tile, config, registry,
                                    trace);
    result.format = kind;
    return result;
}

PipelineResult
runPipelineMixed(const Partitioning &parts,
                 const std::vector<FormatKind> &perTile,
                 const HlsConfig &config, const FormatRegistry &registry,
                 TraceSink *sink)
{
    fatalIf(perTile.size() != parts.tiles.size(),
            "runPipelineMixed: one format per non-zero tile required");
    TraceSink *trace = sink != nullptr ? sink : activeTraceSink();
    if (trace == &noTraceSink())
        trace = nullptr;
    if (trace != nullptr) {
        trace->beginScope("pipeline.mixed.p" +
                          std::to_string(parts.partitionSize));
    }
    PipelineResult result = runImpl(parts, perTile, config, registry,
                                    trace);

    // Report the majority format for summary displays.
    std::map<FormatKind, std::size_t> counts;
    for (FormatKind kind : perTile)
        ++counts[kind];
    std::size_t best = 0;
    for (const auto &[kind, count] : counts) {
        if (count > best) {
            best = count;
            result.format = kind;
        }
    }
    return result;
}

} // namespace copernicus
