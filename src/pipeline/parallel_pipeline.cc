#include "pipeline/parallel_pipeline.hh"

#include <algorithm>
#include <numeric>

#include "common/math.hh"
#include "common/status.hh"

namespace copernicus {

namespace {

/**
 * End-to-end cycles (fill/drain included) of each of @p peCount PEs
 * after assigning the priced tiles by @p schedule. With a non-null
 * @p trace, each assigned tile occupies its steady-state slot on its
 * PE's lane.
 */
std::vector<Cycles>
peCyclesOf(const std::vector<PartitionTiming> &timings, Index peCount,
           ScheduleKind schedule, TraceSink *trace)
{
    std::vector<Cycles> pe_steady(peCount, 0);
    std::vector<Cycles> pe_first_mem(peCount, 0);
    std::vector<Cycles> pe_last_write(peCount, 0);
    std::vector<bool> pe_used(peCount, false);

    auto assign = [&](std::size_t tile_index, Index pe) {
        const PartitionTiming &timing = timings[tile_index];
        if (!pe_used[pe]) {
            pe_used[pe] = true;
            pe_first_mem[pe] = timing.memoryCycles;
        }
        if (trace != nullptr) {
            trace->durationEvent(
                "pe" + std::to_string(pe),
                "p" + std::to_string(tile_index), pe_steady[pe],
                pe_steady[pe] + timing.bottleneckCycles());
        }
        pe_steady[pe] += timing.bottleneckCycles();
        pe_last_write[pe] = timing.writeCycles;
    };

    if (schedule == ScheduleKind::RoundRobin) {
        for (std::size_t i = 0; i < timings.size(); ++i)
            assign(i, static_cast<Index>(i % peCount));
    } else {
        // Longest-processing-time: sort tiles by bottleneck descending
        // and always feed the least-loaded PE.
        std::vector<std::size_t> order(timings.size());
        std::iota(order.begin(), order.end(), std::size_t(0));
        std::sort(order.begin(), order.end(),
                  [&](std::size_t a, std::size_t b) {
                      return timings[a].bottleneckCycles() >
                             timings[b].bottleneckCycles();
                  });
        for (std::size_t i : order) {
            const Index pe = static_cast<Index>(
                std::min_element(pe_steady.begin(), pe_steady.end()) -
                pe_steady.begin());
            assign(i, pe);
        }
    }

    // An idle PE stays at 0: it has no first read or last write.
    for (Index pe = 0; pe < peCount; ++pe)
        pe_steady[pe] += pe_first_mem[pe] + pe_last_write[pe];
    return pe_steady;
}

} // namespace

ParallelResult
runParallel(const Partitioning &parts, FormatKind kind, Index peCount,
            ScheduleKind schedule, const HlsConfig &config,
            const FormatRegistry &registry, TraceSink *sink)
{
    COPERNICUS_FATAL_IF(peCount == 0, "runParallel needs at least one PE");

    TraceSink *trace = resolveTraceSink(sink);
    if (trace != nullptr) {
        trace->beginScope("parallel." +
                          std::string(formatName(kind)) + ".p" +
                          std::to_string(parts.partitionSize) + ".pe" +
                          std::to_string(peCount));
    }

    ParallelResult result;
    result.format = kind;
    result.partitionSize = parts.partitionSize;
    result.peCount = peCount;
    result.schedule = schedule;

    const FormatCodec &codec = registry.codec(kind);
    const Bytes out_bytes = Bytes(parts.partitionSize) * valueBytes;

    std::vector<PartitionTiming> timings;
    timings.reserve(parts.tiles.size());
    Bytes total_bytes = 0;
    for (const Tile &tile : parts.tiles) {
        timings.push_back(timePartition(tile, codec, config));
        total_bytes += timings.back().totalBytes + out_bytes;
    }

    result.peCycles = peCyclesOf(timings, peCount, schedule, trace);
    result.computeBoundCycles =
        *std::max_element(result.peCycles.begin(), result.peCycles.end());

    // Shared DDR3 channel: every byte (in and out) crosses it once.
    const Bytes channel_bytes_per_cycle =
        config.laneBytesPerCycle() * config.streamlines;
    result.memoryBoundCycles =
        ceilDiv(total_bytes, channel_bytes_per_cycle) +
        (timings.empty() ? 0 : config.burstSetupCycles);

    result.totalCycles = std::max(result.computeBoundCycles,
                                  result.memoryBoundCycles);
    result.memoryBound =
        result.memoryBoundCycles > result.computeBoundCycles;
    result.seconds = static_cast<double>(result.totalCycles) *
                     config.secondsPerCycle();

    if (peCount == 1 || timings.empty()) {
        result.speedup = 1.0;
    } else {
        // The same timings on one PE, untraced; the shared channel
        // moves the same bytes.
        const Cycles single_pe =
            peCyclesOf(timings, 1, schedule, nullptr).front();
        result.speedup =
            static_cast<double>(
                std::max(single_pe, result.memoryBoundCycles)) /
            static_cast<double>(result.totalCycles);
    }
    return result;
}

} // namespace copernicus
