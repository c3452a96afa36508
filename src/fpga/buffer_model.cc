#include "fpga/buffer_model.hh"

#include <algorithm>

#include "common/status.hh"

namespace copernicus {

std::vector<BufferRequirement>
bufferRequirements(FormatKind kind, Index p, const FormatParams &params)
{
    COPERNICUS_FATAL_IF(p == 0,
                        "bufferRequirements: partition size must be > 0");
    const std::string violation = formatParamsViolation(params, kind);
    COPERNICUS_FATAL_IF(!violation.empty(), violation);
    const Bytes n = p;
    const Bytes cells = n * n;
    // Listing 5's row sweep is unrolled over the slab width.
    const Index slab = std::min(params.ellMinWidth, p);
    switch (kind) {
      case FormatKind::Dense:
        // One bank per dot-engine lane.
        return {{"values", cells, valueBytes, p}};
      case FormatKind::CSR:
        // Section 2: offsets length n; values/indices at most n^2.
        return {{"values", cells, valueBytes},
                {"colInx", cells, indexBytes},
                {"offsets", n, indexBytes}};
      case FormatKind::CSC:
        return {{"values", cells, valueBytes},
                {"rowInx", cells, indexBytes},
                {"offsets", n, indexBytes}};
      case FormatKind::BCSR: {
        // Section 2: values up to n^2, block indices up to (n/b)^2,
        // offsets n/b. Values are banked like dense's.
        const Bytes grid = n / params.bcsrBlock;
        return {{"values", cells, valueBytes, p},
                {"colInx", grid * grid, indexBytes},
                {"offsets", grid, indexBytes}};
      }
      case FormatKind::COO:
        // Section 2: tuple series of at most 3n^2 words.
        return {{"tuples", 3 * cells, valueBytes}};
      case FormatKind::DOK:
        return {{"table", 3 * cells, valueBytes}};
      case FormatKind::LIL:
        // Column lists can hold the full tile plus the end-marker row.
        return {{"values", cells + n, valueBytes},
                {"rowInx", cells + n, indexBytes}};
      case FormatKind::ELL:
        // Worst case: one full row widens the slab to n.
        return {{"values", cells, valueBytes, slab},
                {"colInx", cells, indexBytes, slab}};
      case FormatKind::SELL:
        return {{"values", cells, valueBytes, slab},
                {"colInx", cells, indexBytes, slab},
                {"widths", n / params.sellSlice, indexBytes}};
      case FormatKind::SELLCS:
        return {{"values", cells, valueBytes, slab},
                {"colInx", cells, indexBytes, slab},
                {"widths", n / params.sellSlice, indexBytes},
                {"perm", n, indexBytes}};
      case FormatKind::DIA:
        // Section 2: at most 2n-1 diagonals of length n+1 (header
        // included).
        return {{"diags", (2 * n - 1) * (n + 1), valueBytes}};
      case FormatKind::JDS:
        return {{"values", cells, valueBytes},
                {"colInx", cells, indexBytes},
                {"perm", n, indexBytes},
                {"jdPtr", n + 1, indexBytes}};
      case FormatKind::ELLCOO: {
        const Index width = std::min(params.ellCooWidth, p);
        return {{"values", n * width, valueBytes, width},
                {"colInx", n * width, indexBytes, width},
                {"overflow", 3 * cells, valueBytes}};
      }
      case FormatKind::BITMAP:
        return {{"values", cells, valueBytes},
                {"mask", (cells + 7) / 8, 1}};
    }
    panic("bufferRequirements: unknown format kind");
}

Bytes
totalBufferBits(FormatKind kind, Index p, const FormatParams &params)
{
    Bytes bits = 0;
    for (const auto &buffer : bufferRequirements(kind, p, params))
        bits += buffer.bits();
    return bits;
}

} // namespace copernicus
