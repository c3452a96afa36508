#include "hls/axi.hh"

#include <algorithm>
#include <array>

#include "common/math.hh"
#include "common/status.hh"

namespace copernicus {

Cycles
transferCycles(std::span<const Bytes> streams, const HlsConfig &config)
{
    COPERNICUS_FATAL_IF(config.streamlines == 0,
                        "at least one streamline required");
    COPERNICUS_PANIC_IF(streams.size() > maxTransferStreams,
                        std::to_string(streams.size()) +
                            " streams exceed the " +
                            std::to_string(maxTransferStreams) +
                            "-stream transfer");

    Bytes total = 0;
    for (Bytes s : streams)
        total += s;
    if (total == 0)
        return 0;

    if (config.useDramModel) {
        // One DDR3 channel serves all streams of the partition.
        return dramServiceCycles(total, config.dram, config.clockMhz);
    }

    // Longest-processing-time assignment of streams to lanes. Each
    // stream joins the first least-loaded lane, so the lanes that ever
    // receive bytes are a prefix no longer than the stream count: only
    // min(streamlines, streams) lanes can be the busiest.
    const std::size_t count = streams.size();
    std::array<Bytes, maxTransferStreams> sorted{};
    for (std::size_t i = 0; i < count; ++i) {
        // Insertion sort, longest first: at most maxTransferStreams.
        std::size_t at = i;
        for (; at > 0 && sorted[at - 1] < streams[i]; --at)
            sorted[at] = sorted[at - 1];
        sorted[at] = streams[i];
    }
    std::array<Bytes, maxTransferStreams> lanes{};
    const auto used = lanes.begin() +
                      std::min<std::size_t>(config.streamlines, count);
    for (std::size_t i = 0; i < count; ++i)
        *std::min_element(lanes.begin(), used) += sorted[i];

    const Bytes busiest = *std::max_element(lanes.begin(), used);
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
