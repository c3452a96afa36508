#include "formats/size_model.hh"

#include <algorithm>
#include <functional>

#include "common/status.hh"

namespace copernicus {

TileShape
measureTile(const Tile &tile, const FormatParams &params)
{
    const TileStats &feat = tile.features();
    TileShape shape;
    shape.p = tile.size();
    shape.nnz = feat.nnz;
    shape.maxRowNnz = feat.maxRowNnz;
    shape.maxColNnz = feat.maxColNnz;
    shape.nnzDiagonals = feat.nnzDiagonals;

    const Index p = tile.size();
    const auto &nz = tile.nonzeros();
    const std::vector<Index> &row_nnz = feat.rowNnz;

    // Non-zero BCSR blocks: mark each nonzero's block in one pass.
    const Index b = params.bcsrBlock;
    if (p % b == 0) {
        const Index grid = p / b;
        std::vector<char> blockSet(static_cast<std::size_t>(grid) * grid,
                                   0);
        for (const TileNonzero &e : nz)
            blockSet[static_cast<std::size_t>(e.row / b) * grid +
                     e.col / b] = 1;
        for (const char set : blockSet)
            shape.nnzBlocks += set != 0;
    }

    // Per-slice widths, plain and window-sorted.
    const Index c = params.sellSlice;
    if (p % c == 0) {
        for (Index base = 0; base < p; base += c) {
            Index width = 0;
            for (Index r = base; r < base + c; ++r)
                width = std::max(width, row_nnz[r]);
            shape.sliceWidths.push_back(width);
        }
    }
    const Index sigma = params.sellCsWindow;
    if (p % c == 0 && sigma % c == 0 && p % sigma == 0) {
        std::vector<Index> sorted = row_nnz;
        for (Index base = 0; base < p; base += sigma) {
            std::sort(sorted.begin() + base,
                      sorted.begin() + base + sigma,
                      std::greater<>());
        }
        for (Index base = 0; base < p; base += c) {
            Index width = 0;
            for (Index r = base; r < base + c; ++r)
                width = std::max(width, sorted[r]);
            shape.sortedSliceWidths.push_back(width);
        }
    }

    // ELL+COO overflow.
    const Index hybrid_width = std::min(params.ellCooWidth, p);
    for (Index r = 0; r < p; ++r)
        if (row_nnz[r] > hybrid_width)
            shape.ellCooOverflow += row_nnz[r] - hybrid_width;

    return shape;
}

Bytes
predictedBytes(const TileShape &shape, FormatKind kind,
               const FormatParams &params)
{
    const Bytes p = shape.p;
    const Bytes nnz = shape.nnz;
    const Bytes entry = valueBytes + indexBytes;
    switch (kind) {
      case FormatKind::Dense:
        return p * p * valueBytes;
      case FormatKind::CSR:
      case FormatKind::CSC:
        return nnz * entry + p * indexBytes;
      case FormatKind::BCSR: {
        const Bytes b = params.bcsrBlock;
        return Bytes(shape.nnzBlocks) * (b * b * valueBytes +
                                         indexBytes) +
               (p / b) * indexBytes;
      }
      case FormatKind::COO:
      case FormatKind::DOK:
        return nnz * (valueBytes + 2 * indexBytes);
      case FormatKind::LIL:
        return (nnz + p) * entry;
      case FormatKind::ELL: {
        const Bytes width = std::max<Bytes>(
            std::min<Bytes>(params.ellMinWidth, p), shape.maxRowNnz);
        return p * width * entry;
      }
      case FormatKind::SELL: {
        Bytes total = Bytes(shape.sliceWidths.size()) * indexBytes;
        for (Index width : shape.sliceWidths)
            total += Bytes(params.sellSlice) * width * entry;
        return total;
      }
      case FormatKind::SELLCS: {
        Bytes total = Bytes(shape.sortedSliceWidths.size()) *
                          indexBytes +
                      p * indexBytes;
        for (Index width : shape.sortedSliceWidths)
            total += Bytes(params.sellSlice) * width * entry;
        return total;
      }
      case FormatKind::DIA:
        return Bytes(shape.nnzDiagonals) * (p + 1) * valueBytes;
      case FormatKind::JDS:
        return nnz * entry + p * indexBytes +
               (Bytes(shape.maxRowNnz) + 1) * indexBytes;
      case FormatKind::ELLCOO: {
        const Bytes width = std::min<Bytes>(params.ellCooWidth, p);
        return p * width * entry +
               Bytes(shape.ellCooOverflow) *
                   (valueBytes + 2 * indexBytes);
      }
      case FormatKind::BITMAP:
        return nnz * valueBytes + (p * p + 7) / 8;
    }
    panic("predictedBytes: unknown format kind");
}

double
predictedUtilization(const TileShape &shape, FormatKind kind,
                     const FormatParams &params)
{
    const Bytes total = predictedBytes(shape, kind, params);
    return total == 0
               ? 0.0
               : static_cast<double>(Bytes(shape.nnz) * valueBytes) /
                     static_cast<double>(total);
}

} // namespace copernicus
