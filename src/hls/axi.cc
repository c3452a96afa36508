#include "hls/axi.hh"

#include <algorithm>
#include <vector>

#include "common/math.hh"
#include "common/status.hh"

namespace copernicus {

Cycles
transferCycles(std::span<const Bytes> streams, const HlsConfig &config)
{
    COPERNICUS_FATAL_IF(config.streamlines == 0,
                        "at least one streamline required");

    Bytes total = 0;
    for (Bytes s : streams)
        total += s;
    if (total == 0)
        return 0;

    if (config.useDramModel) {
        // One DDR3 channel serves all streams of the partition.
        return dramServiceCycles(total, config.dram, config.clockMhz);
    }

    // Longest-processing-time assignment of streams to lanes.
    std::vector<Bytes> sorted(streams.begin(), streams.end());
    std::sort(sorted.begin(), sorted.end(), std::greater<>());
    std::vector<Bytes> lanes(config.streamlines, 0);
    for (Bytes s : sorted)
        *std::min_element(lanes.begin(), lanes.end()) += s;

    const Bytes busiest = *std::max_element(lanes.begin(), lanes.end());
    return ceilDiv(busiest, config.laneBytesPerCycle()) +
           config.burstSetupCycles;
}

Cycles
writebackCycles(Bytes bytes, const HlsConfig &config)
{
    if (bytes == 0)
        return 0;
    if (config.useDramModel)
        return dramServiceCycles(bytes, config.dram, config.clockMhz);
    return ceilDiv(bytes, config.laneBytesPerCycle()) +
           config.burstSetupCycles;
}

} // namespace copernicus
