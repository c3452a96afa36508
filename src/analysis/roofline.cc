#include "analysis/roofline.hh"

#include <algorithm>

#include "common/status.hh"

namespace copernicus {

double
peakComputeGflops(Index p, const HlsConfig &config)
{
    // p multiply-accumulates per cycle = 2p flops per cycle.
    return 2.0 * p * config.clockMhz * 1e6 / 1e9;
}

double
peakBandwidthGBs(const HlsConfig &config)
{
    return static_cast<double>(config.laneBytesPerCycle()) *
           config.streamlines * config.clockMhz * 1e6 / 1e9;
}

RooflinePoint
placeOnRoofline(double usefulFlops, double seconds,
                Bytes transferredBytes, Index p,
                const HlsConfig &config)
{
    COPERNICUS_FATAL_IF(seconds <= 0.0, "roofline: seconds must be positive");
    COPERNICUS_FATAL_IF(transferredBytes == 0,
                        "roofline: no bytes transferred");

    RooflinePoint point;
    point.intensity = usefulFlops /
                      static_cast<double>(transferredBytes);
    point.attainedGflops = usefulFlops / seconds / 1e9;

    const double compute_roof = peakComputeGflops(p, config);
    const double bandwidth_roof = point.intensity *
                                  peakBandwidthGBs(config);
    point.boundGflops = std::min(compute_roof, bandwidth_roof);
    point.memoryBoundRegion = bandwidth_roof < compute_roof;
    point.efficiency = point.boundGflops > 0
                           ? point.attainedGflops / point.boundGflops
                           : 0.0;
    return point;
}

} // namespace copernicus
