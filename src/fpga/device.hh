/**
 * @file
 * The paper's target device (Zynq-7000 xc7z020): its capacity as
 * reported in Table 2's Total row, used to express resource
 * utilization as percentages, and the size of its BRAM blocks.
 */

#ifndef COPERNICUS_FPGA_DEVICE_HH
#define COPERNICUS_FPGA_DEVICE_HH

#include "common/types.hh"

namespace copernicus {

/** Bits in one BRAM_18K block. */
inline constexpr Bytes bram18kBits = 18 * 1024;

/** xc7z020 capacity (Table 2, Total row). */
struct DeviceCapacity
{
    double bram18k = 140.0;
    double ffK = 106.4;
    double lutK = 53.2;
};

} // namespace copernicus

#endif // COPERNICUS_FPGA_DEVICE_HH
