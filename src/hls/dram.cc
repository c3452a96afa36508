#include "hls/dram.hh"

#include <cmath>

#include "common/math.hh"
#include "common/status.hh"

namespace copernicus {

Cycles
dramServiceCycles(Bytes bytes, const DramConfig &dram,
                  double fpgaClockMhz)
{
    COPERNICUS_FATAL_IF(fpgaClockMhz <= 0.0,
                        "dram: FPGA clock must be positive");
    COPERNICUS_FATAL_IF(dram.busClockMhz <= 0.0,
                        "dram: bus clock must be positive");
    if (bytes == 0)
        return 0;

    const Cycles rows = ceilDiv(bytes, dram.rowBytes);
    Cycles mem_cycles = dram.tRcd + dram.tCl; // first row open
    mem_cycles += (rows - 1) * (dram.tRp + dram.tRcd);
    mem_cycles += ceilDiv(bytes, dram.bytesPerCycle());

    const double ratio = fpgaClockMhz / dram.busClockMhz;
    return static_cast<Cycles>(
        std::ceil(static_cast<double>(mem_cycles) * ratio));
}

} // namespace copernicus
