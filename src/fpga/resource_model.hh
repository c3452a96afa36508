/**
 * @file
 * FPGA resource model (Table 2).
 *
 * Copernicus cannot run Vivado synthesis, so every estimate scales one
 * measured Table 2 point, its anchor: the format's paper sibling at
 * the calibrated partition size (8, 16 or 32) nearest p. An estimate
 * is the anchor's value times the format's own structure at the given
 * codec hyperparameters over the anchor's structure at the paper's.
 * BRAM's structure is the bank count of the worst-case buffers in
 * fpga/buffer_model.hh; FF and LUT scale with pipeline depth, unroll
 * width and dot-engine width. A paper format at 8, 16 or 32 is its own
 * anchor, so at the paper's hyperparameters the ratio is 1 and the
 * estimate is Table 2 verbatim.
 */

#ifndef COPERNICUS_FPGA_RESOURCE_MODEL_HH
#define COPERNICUS_FPGA_RESOURCE_MODEL_HH

#include "fpga/device.hh"
#include "formats/format_kind.hh"
#include "formats/registry.hh"
#include "common/types.hh"

namespace copernicus {

/** Estimated or measured resource usage of one design point. */
struct ResourceEstimate
{
    /** 18Kbit BRAM blocks. */
    double bram18k = 0;

    /** Flip-flops, thousands. */
    double ffK = 0;

    /** Look-up tables, thousands. */
    double lutK = 0;

    /**
     * True when the values are Table 2's own: a paper format at p 8,
     * 16 or 32 whose buffers at the given hyperparameters equal those
     * at the paper's.
     */
    bool calibrated = false;
};

/** One design point the paper measured (a Table 2 row and column). */
struct PaperPoint
{
    FormatKind kind = FormatKind::Dense;
    Index p = 0;
    ResourceEstimate resources;

    /** Table 2's total dynamic power, watts. */
    double dynamicW = 0;
};

/**
 * The Table 2 point that estimates for (@p kind, @p p) scale from:
 * @p kind's paper sibling at the calibrated size nearest @p p.
 */
PaperPoint calibrationAnchor(FormatKind kind, Index p);

/**
 * Resource estimate for any implemented format, partition size and
 * codec hyperparameters (see the file comment). Raises FatalError when
 * p is 0 or the format's codec rejects @p params.
 */
ResourceEstimate estimateResources(
    FormatKind kind, Index p, const FormatParams &params = FormatParams());

/** Utilization percentages against the device capacity. */
struct ResourceUtilization
{
    double bramPct = 0;
    double ffPct = 0;
    double lutPct = 0;
};

/** Express @p est as a percentage of @p device. */
ResourceUtilization utilization(const ResourceEstimate &est,
                                const DeviceCapacity &device =
                                    DeviceCapacity());

} // namespace copernicus

#endif // COPERNICUS_FPGA_RESOURCE_MODEL_HH
