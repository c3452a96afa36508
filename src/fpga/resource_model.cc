#include "fpga/resource_model.hh"

#include <algorithm>

#include "common/status.hh"
#include "fpga/buffer_model.hh"

namespace copernicus {

namespace {

/**
 * One Table 2 row: {BRAM_18K, FF(K), LUT(K), dynamic power (W)} at
 * p = 8, 16, 32.
 */
struct CalibrationRow
{
    FormatKind kind;
    double bram[3];
    double ff[3];
    double lut[3];
    double dyn[3];
};

/** Table 2 of the paper, verbatim. */
const CalibrationRow calibrationTable[] = {
    {FormatKind::Dense, {8, 16, 32}, {1.5, 1.9, 4.3}, {0.7, 0.7, 1.2},
     {0.02, 0.08, 0.03}},
    {FormatKind::CSR, {2, 2, 8}, {0.7, 0.8, 3.8}, {0.9, 0.9, 1.1},
     {0.04, 0.04, 0.07}},
    {FormatKind::BCSR, {8, 16, 32}, {1.6, 2.4, 4.4}, {1.2, 1.4, 2.2},
     {0.05, 0.06, 0.06}},
    {FormatKind::CSC, {1, 1, 9}, {0.9, 1.0, 2.7}, {1.0, 1.2, 1.1},
     {0.01, 0.05, 0.03}},
    {FormatKind::LIL, {4, 4, 6}, {2.9, 5.8, 9.1}, {1.6, 2.7, 4.8},
     {0.05, 0.08, 0.07}},
    {FormatKind::ELL, {1, 7, 9}, {2.0, 3.2, 0.9}, {0.9, 1.0, 0.8},
     {0.06, 0.10, 0.06}},
    {FormatKind::COO, {3, 3, 8}, {1.8, 1.3, 3.2}, {1.2, 2.5, 5.4},
     {0.02, 0.04, 0.04}},
    {FormatKind::DIA, {3, 3, 11}, {2.2, 5.0, 9.2}, {1.5, 2.8, 4.6},
     {0.07, 0.12, 0.05}},
};

/** Table 2's partition sizes, in column order. */
constexpr Index calibratedSizes[3] = {8, 16, 32};

/** Table 2 column of the calibrated size nearest @p p. */
int
nearestSlot(Index p)
{
    if (p >= 24)
        return 2;
    return p >= 12 ? 1 : 0;
}

/** Paper format whose structure an extension format resembles most. */
FormatKind
paperSibling(FormatKind kind)
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
 * Structural BRAM_18K count: each worst-case buffer takes its
 * array_partition banks or its bits over 18 Kbit, whichever is more.
 */
double
structuralBram(FormatKind kind, Index p, const FormatParams &params)
{
    double blocks = 0;
    for (const BufferRequirement &buffer :
         bufferRequirements(kind, p, params)) {
        blocks += std::max(static_cast<double>(buffer.banks),
                           static_cast<double>(buffer.bits()) /
                               static_cast<double>(bram18kBits));
    }
    return blocks;
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

PaperPoint
calibrationAnchor(FormatKind kind, Index p)
{
    const FormatKind sibling = paperSibling(kind);
    const int slot = nearestSlot(p);
    for (const CalibrationRow &row : calibrationTable) {
        if (row.kind == sibling) {
            return {sibling, calibratedSizes[slot],
                    {row.bram[slot], row.ff[slot], row.lut[slot], true},
                    row.dyn[slot]};
        }
    }
    panic("calibrationAnchor: no Table 2 row for a paper format");
}

ResourceEstimate
estimateResources(FormatKind kind, Index p, const FormatParams &params)
{
    const PaperPoint anchor = calibrationAnchor(kind, p);
    const ResourceEstimate &measured = anchor.resources;
    ResourceEstimate est;
    // Each ratio is exactly 1 when the structures are equal, which
    // keeps a calibrated point verbatim.
    est.bram18k = measured.bram18k *
                  (structuralBram(kind, p, params) /
                   structuralBram(anchor.kind, anchor.p, FormatParams()));
    est.ffK = measured.ffK *
              (structuralFf(kind, p) / structuralFf(anchor.kind, anchor.p));
    est.lutK = measured.lutK * (structuralLut(kind, p) /
                                structuralLut(anchor.kind, anchor.p));
    est.calibrated = anchor.kind == kind && anchor.p == p &&
                     bufferRequirements(kind, p, params) ==
                         bufferRequirements(kind, p);
    return est;
}

ResourceUtilization
utilization(const ResourceEstimate &est, const DeviceCapacity &device)
{
    return {100.0 * est.bram18k / device.bram18k,
            100.0 * est.ffK / device.ffK, 100.0 * est.lutK / device.lutK};
}

} // namespace copernicus
