#include "fpga/resource_model.hh"

#include <algorithm>
#include <cmath>

#include "common/status.hh"

namespace copernicus {

namespace {

/** One Table 2 row: {BRAM_18K, FF(K), LUT(K)} at p = 8, 16, 32. */
struct CalibrationRow
{
    FormatKind kind;
    double bram[3];
    double ff[3];
    double lut[3];
};

/** Table 2 of the paper, verbatim. */
const CalibrationRow calibrationTable[] = {
    {FormatKind::Dense, {8, 16, 32}, {1.5, 1.9, 4.3}, {0.7, 0.7, 1.2}},
    {FormatKind::CSR, {2, 2, 8}, {0.7, 0.8, 3.8}, {0.9, 0.9, 1.1}},
    {FormatKind::BCSR, {8, 16, 32}, {1.6, 2.4, 4.4}, {1.2, 1.4, 2.2}},
    {FormatKind::CSC, {1, 1, 9}, {0.9, 1.0, 2.7}, {1.0, 1.2, 1.1}},
    {FormatKind::LIL, {4, 4, 6}, {2.9, 5.8, 9.1}, {1.6, 2.7, 4.8}},
    {FormatKind::ELL, {1, 7, 9}, {2.0, 3.2, 0.9}, {0.9, 1.0, 0.8}},
    {FormatKind::COO, {3, 3, 8}, {1.8, 1.3, 3.2}, {1.2, 2.5, 5.4}},
    {FormatKind::DIA, {3, 3, 11}, {2.2, 5.0, 9.2}, {1.5, 2.8, 4.6}},
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

/** Paper format whose structure an extension format resembles most. */
FormatKind
structuralSibling(FormatKind kind)
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

constexpr double bramBits = 18432.0;

/**
 * Structural BRAM-bank count: worst-case buffer bits over 18Kbit banks,
 * times the array_partition factor for the formats whose decompressor
 * unrolls over banks (Section 5.2). Only the *scaling* with p matters;
 * absolute values are anchored to the calibration table.
 */
double
structuralBram(FormatKind kind, Index p)
{
    const double cells = static_cast<double>(p) * p * 32.0;
    switch (kind) {
      case FormatKind::Dense:
      case FormatKind::BCSR:
        // Values partitioned one bank per engine lane.
        return p;
      case FormatKind::CSR:
      case FormatKind::CSC:
      case FormatKind::JDS:
        return std::max(2.0, 2.0 * cells / bramBits);
      case FormatKind::COO:
        return std::max(3.0, 3.0 * cells / bramBits);
      case FormatKind::DOK:
        // Tuple arrays plus the on-chip hash table.
        return std::max(4.0, 5.0 * cells / bramBits);
      case FormatKind::LIL:
        return std::max(4.0, 2.0 * cells / bramBits);
      case FormatKind::ELL:
      case FormatKind::SELL:
      case FormatKind::ELLCOO:
      case FormatKind::SELLCS:
        // Width-6 slabs, one bank per unrolled lane as p grows.
        return std::max(1.0, 2.0 * p * 6.0 * 32.0 / 4096.0);
      case FormatKind::BITMAP:
        // One mask buffer plus the dense value buffer.
        return std::max(2.0, (cells + cells / 32.0) / bramBits);
      case FormatKind::DIA:
        return std::max(3.0, (2.0 * p - 1.0) * (p + 1.0) * 32.0 /
                                 bramBits);
    }
    panic("structuralBram: unknown format kind");
}

/** Structural FF count (K): dot-engine registers plus decompressor. */
double
structuralFf(FormatKind kind, Index p)
{
    const double engine = 0.064 * p; // p lanes x 64 pipeline bits
    switch (kind) {
      case FormatKind::Dense: return 0.8 + engine;
      case FormatKind::CSR:
      case FormatKind::JDS: return 0.4 + engine;
      case FormatKind::BCSR: return 0.9 + engine;
      case FormatKind::CSC: return 0.5 + engine;
      case FormatKind::LIL: return 1.2 + 0.25 * p + engine;
      case FormatKind::ELL:
      case FormatKind::SELL:
      case FormatKind::ELLCOO: return 1.4 + engine;
      case FormatKind::SELLCS: return 1.6 + engine;
      case FormatKind::COO: return 0.9 + engine;
      case FormatKind::DOK: return 1.6 + engine;
      case FormatKind::BITMAP: return 0.7 + engine;
      case FormatKind::DIA: return 1.1 + 0.26 * p + engine;
    }
    panic("structuralFf: unknown format kind");
}

/** Structural LUT count (K): comparators, muxes, address generators. */
double
structuralLut(FormatKind kind, Index p)
{
    const double engine = 0.02 * p;
    switch (kind) {
      case FormatKind::Dense: return 0.6 + engine;
      case FormatKind::CSR:
      case FormatKind::JDS: return 0.8 + engine;
      case FormatKind::BCSR: return 0.9 + 0.035 * p + engine;
      case FormatKind::CSC: return 1.0 + engine;
      case FormatKind::LIL: return 0.8 + 0.12 * p + engine;
      case FormatKind::ELL:
      case FormatKind::SELL:
      case FormatKind::SELLCS: return 0.85 + engine;
      case FormatKind::ELLCOO: return 1.0 + 0.05 * p + engine;
      case FormatKind::COO: return 0.6 + 0.15 * p + engine;
      case FormatKind::DOK: return 1.2 + 0.15 * p + engine;
      case FormatKind::BITMAP: return 0.9 + 0.08 * p + engine;
      case FormatKind::DIA: return 0.7 + 0.12 * p + engine;
    }
    panic("structuralLut: unknown format kind");
}

} // namespace

std::optional<ResourceEstimate>
paperCalibration(FormatKind kind, Index p)
{
    const int slot = partitionSlot(p);
    if (slot < 0)
        return std::nullopt;
    for (const auto &row : calibrationTable) {
        if (row.kind == kind) {
            return ResourceEstimate{row.bram[slot], row.ff[slot],
                                    row.lut[slot], true};
        }
    }
    return std::nullopt;
}

ResourceEstimate
estimateResources(FormatKind kind, Index p)
{
    COPERNICUS_FATAL_IF(p == 0,
                        "estimateResources: partition size must be positive");
    if (auto cal = paperCalibration(kind, p))
        return *cal;

    // Anchor the structural estimate to the nearest calibrated point of
    // the structurally closest paper format.
    const FormatKind sibling = structuralSibling(kind);
    Index anchor_p = 8;
    if (p >= 24)
        anchor_p = 32;
    else if (p >= 12)
        anchor_p = 16;
    const auto anchor = paperCalibration(sibling, anchor_p);
    COPERNICUS_PANIC_IF(!anchor, "no calibration anchor for paper format");

    ResourceEstimate est;
    est.calibrated = false;
    est.bram18k = anchor->bram18k * structuralBram(kind, p) /
                  structuralBram(sibling, anchor_p);
    est.ffK = anchor->ffK * structuralFf(kind, p) /
              structuralFf(sibling, anchor_p);
    est.lutK = anchor->lutK * structuralLut(kind, p) /
               structuralLut(sibling, anchor_p);
    return est;
}

ResourceUtilization
utilization(const ResourceEstimate &est, const DeviceCapacity &device)
{
    return {100.0 * est.bram18k / device.bram18k,
            100.0 * est.ffK / device.ffK, 100.0 * est.lutK / device.lutK};
}

} // namespace copernicus
