#include "pipeline/event_sim.hh"

#include <algorithm>

namespace copernicus {

EventSimResult
runEventSim(const Partitioning &parts, FormatKind kind,
            const HlsConfig &config, const FormatRegistry &registry,
            Index inputBuffers, TraceSink *sink)
{
    COPERNICUS_FATAL_IF(inputBuffers == 0,
                        "runEventSim needs at least one input buffer");
    EventSimResult result;
    result.format = kind;
    result.partitionSize = parts.partitionSize;

    TraceSink *trace = resolveTraceSink(sink);
    if (trace != nullptr) {
        trace->beginScope("event_sim." +
                          std::string(formatName(kind)) + ".p" +
                          std::to_string(parts.partitionSize));
    }

    const FormatCodec &codec = registry.codec(kind);

    Cycles prev_read_end = 0;
    Cycles prev_compute_end = 0;
    Cycles prev_write_end = 0;

    for (const Tile &tile : parts.tiles) {
        const PartitionTiming timing = timePartition(tile, codec, config);

        TileSchedule slot;
        // Buffering: reading tile i reuses the slot tile
        // i - inputBuffers computed from.
        Cycles buffer_free = 0;
        if (result.schedule.size() >= inputBuffers) {
            buffer_free = result
                              .schedule[result.schedule.size() -
                                        inputBuffers]
                              .computeEnd;
        }
        slot.readStart = std::max(prev_read_end, buffer_free);
        slot.readEnd = slot.readStart + timing.memoryCycles;
        slot.computeStart = std::max(slot.readEnd, prev_compute_end);
        slot.computeEnd = slot.computeStart + timing.computeCycles;
        slot.writeStart = std::max(slot.computeEnd, prev_write_end);
        slot.writeEnd = slot.writeStart + timing.writeCycles;

        result.readBusy += timing.memoryCycles;
        result.computeBusy += timing.computeCycles;
        result.writeBusy += timing.writeCycles;
        result.readStall += slot.readStart - prev_read_end;
        if (!result.schedule.empty())
            result.computeStall += slot.computeStart - prev_compute_end;

        prev_read_end = slot.readEnd;
        prev_compute_end = slot.computeEnd;
        prev_write_end = slot.writeEnd;

        if (trace != nullptr) {
            const std::string name =
                "p" + std::to_string(result.schedule.size());
            trace->durationEvent("read", name, slot.readStart,
                                 slot.readEnd);
            trace->durationEvent("compute", name, slot.computeStart,
                                 slot.computeEnd);
            trace->durationEvent("write", name, slot.writeStart,
                                 slot.writeEnd);
            trace->counterEvent(
                "bw_util", slot.readEnd,
                timing.totalBytes == 0
                    ? 0.0
                    : static_cast<double>(timing.usefulBytes) /
                          static_cast<double>(timing.totalBytes));
            trace->counterEvent("sigma", slot.computeEnd, timing.sigma);
        }

        result.schedule.push_back(slot);
    }

    result.totalCycles = prev_write_end;
    return result;
}

} // namespace copernicus
