#include "fpga/power_model.hh"

#include "common/status.hh"

namespace copernicus {

namespace {

/** Table 2 dynamic power (W) at p = 8, 16, 32. */
struct PowerRow
{
    FormatKind kind;
    double dyn[3];
};

const PowerRow powerTable[] = {
    {FormatKind::Dense, {0.02, 0.08, 0.03}},
    {FormatKind::CSR, {0.04, 0.04, 0.07}},
    {FormatKind::BCSR, {0.05, 0.06, 0.06}},
    {FormatKind::CSC, {0.01, 0.05, 0.03}},
    {FormatKind::LIL, {0.05, 0.08, 0.07}},
    {FormatKind::ELL, {0.06, 0.10, 0.06}},
    {FormatKind::COO, {0.02, 0.04, 0.04}},
    {FormatKind::DIA, {0.07, 0.12, 0.05}},
};

int
partitionSlot(Index p)
{
    switch (p) {
      case 8: return 0;
      case 16: return 1;
      case 32: return 2;
      default: return -1;
    }
}

FormatKind
powerSibling(FormatKind kind)
{
    switch (kind) {
      case FormatKind::DOK: return FormatKind::COO;
      case FormatKind::SELL: return FormatKind::ELL;
      case FormatKind::JDS: return FormatKind::CSR;
      case FormatKind::ELLCOO: return FormatKind::ELL;
      case FormatKind::SELLCS: return FormatKind::ELL;
      case FormatKind::BITMAP: return FormatKind::CSR;
      default: return kind;
    }
}

/**
 * Raw (unnormalized) structural power shares. Logic toggles with LUT
 * count; BRAM power grows with banks but the per-bank access intensity
 * falls as partitions widen (more data per control access); signal
 * power follows the routed fabric (FFs plus LUT outputs) and dominates
 * the total's shape (Section 6.4).
 */
void
rawShares(const ResourceEstimate &res, Index p, double &logic,
          double &bram, double &signals)
{
    logic = 0.012 * res.lutK;
    bram = 0.0024 * res.bram18k * (8.0 / (8.0 + p) + 0.5);
    signals = 0.010 * res.ffK + 0.006 * res.lutK;
}

} // namespace

std::optional<double>
paperDynamicPower(FormatKind kind, Index p)
{
    const int slot = partitionSlot(p);
    if (slot < 0)
        return std::nullopt;
    for (const auto &row : powerTable)
        if (row.kind == kind)
            return row.dyn[slot];
    return std::nullopt;
}

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
estimatePower(FormatKind kind, Index p)
{
    COPERNICUS_FATAL_IF(p == 0,
                        "estimatePower: partition size must be positive");
    const ResourceEstimate res = estimateResources(kind, p);

    double logic = 0, bram = 0, signals = 0;
    rawShares(res, p, logic, bram, signals);
    const double raw_total = logic + bram + signals;

    double target = raw_total;
    if (auto dyn = paperDynamicPower(kind, p)) {
        target = *dyn;
    } else {
        // Anchor to the sibling's calibrated total, scaled by the raw
        // structural ratio.
        const FormatKind sibling = powerSibling(kind);
        Index anchor_p = 8;
        if (p >= 24)
            anchor_p = 32;
        else if (p >= 12)
            anchor_p = 16;
        if (auto dyn_sibling = paperDynamicPower(sibling, anchor_p)) {
            const ResourceEstimate sib =
                estimateResources(sibling, anchor_p);
            double sl = 0, sb = 0, ss = 0;
            rawShares(sib, anchor_p, sl, sb, ss);
            const double sib_raw = sl + sb + ss;
            if (sib_raw > 0)
                target = *dyn_sibling * raw_total / sib_raw;
        }
    }

    PowerEstimate power;
    if (raw_total > 0) {
        const double scale = target / raw_total;
        power.logicW = logic * scale;
        power.bramW = bram * scale;
        power.signalsW = signals * scale;
    }
    power.staticW = paperStaticPower(kind);
    return power;
}

} // namespace copernicus
