#include "fpga/power_model.hh"

namespace copernicus {

namespace {

/**
 * Raw (unnormalized) structural power shares. Logic toggles with LUT
 * count; BRAM power grows with banks but the per-bank access intensity
 * falls as partitions widen (more data per control access); signal
 * power follows the routed fabric (FFs plus LUT outputs) and dominates
 * the total's shape (Section 6.4).
 */
PowerEstimate
rawShares(const ResourceEstimate &res, Index p)
{
    PowerEstimate raw;
    raw.logicW = 0.012 * res.lutK;
    raw.bramW = 0.0024 * res.bram18k * (8.0 / (8.0 + p) + 0.5);
    raw.signalsW = 0.010 * res.ffK + 0.006 * res.lutK;
    return raw;
}

} // namespace

double
paperStaticPower(FormatKind kind)
{
    switch (kind) {
      case FormatKind::CSC:
      case FormatKind::COO:
      case FormatKind::DOK:
      case FormatKind::DIA:
      case FormatKind::BITMAP:
        return 0.103;
      default:
        return 0.121;
    }
}

PowerEstimate
estimatePower(FormatKind kind, Index p, const FormatParams &params)
{
    const PaperPoint anchor = calibrationAnchor(kind, p);
    // Table 2's watts per raw share at the anchor.
    const double scale =
        anchor.dynamicW / rawShares(anchor.resources, anchor.p).dynamicW();
    PowerEstimate power = rawShares(estimateResources(kind, p, params), p);
    power.logicW *= scale;
    power.bramW *= scale;
    power.signalsW *= scale;
    power.staticW = paperStaticPower(kind);
    return power;
}

} // namespace copernicus
