/**
 * @file
 * Power model (Table 2's dynamic power column, Figure 13's breakdown,
 * and Section 6.4's static power).
 *
 * Dynamic power comes from raw structural shares of the resource
 * estimate: logic power scales with LUTs, BRAM power with banks and
 * access intensity, signal power with FFs plus routed LUT outputs. The
 * shares are priced in watts by the resource model's anchor (the Table
 * 2 point calibrationAnchor() names): its measured dynamic power over
 * its own raw shares. So a calibrated point's three components sum to
 * Table 2's total, and any other point's total is the anchor's times
 * the raw-share ratio. Static power is the per-format constant Section
 * 6.4 reports.
 */

#ifndef COPERNICUS_FPGA_POWER_MODEL_HH
#define COPERNICUS_FPGA_POWER_MODEL_HH

#include "fpga/resource_model.hh"

namespace copernicus {

/** Dynamic-power breakdown plus static power, watts. */
struct PowerEstimate
{
    double logicW = 0;
    double bramW = 0;
    double signalsW = 0;
    double staticW = 0;

    /** Total dynamic power. */
    double dynamicW() const { return logicW + bramW + signalsW; }

    /** Total power. */
    double totalW() const { return dynamicW() + staticW; }
};

/**
 * Static power per Section 6.4: 0.121 W for dense/CSR/BCSR/LIL/ELL
 * (and their extensions), 0.103 W for CSC/COO/DIA (and DOK).
 */
double paperStaticPower(FormatKind kind);

/**
 * Full power estimate for a design point (see the file comment).
 * Raises FatalError when p is 0 or the format's codec rejects
 * @p params.
 */
PowerEstimate estimatePower(FormatKind kind, Index p,
                            const FormatParams &params = FormatParams());

} // namespace copernicus

#endif // COPERNICUS_FPGA_POWER_MODEL_HH
