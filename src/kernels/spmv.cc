#include "kernels/spmv.hh"

#include <algorithm>

#include "common/status.hh"
#include "formats/bcsr_format.hh"
#include "formats/bitmap_format.hh"
#include "formats/coo_format.hh"
#include "formats/csc_format.hh"
#include "formats/csr_format.hh"
#include "formats/dense_format.hh"
#include "formats/dia_format.hh"
#include "formats/dok_format.hh"
#include "formats/ell_format.hh"
#include "formats/ellcoo_format.hh"
#include "formats/jds_format.hh"
#include "formats/lil_format.hh"
#include "formats/sell_format.hh"
#include "formats/sellcs_format.hh"
#include "kernels/dot_engine.hh"

namespace copernicus {

namespace {

void
checkOperand(Index p, std::span<const Value> x, const char *what)
{
    COPERNICUS_FATAL_IF(
        x.size() != p,
        std::string(what) + ": operand length must equal tile size");
}

std::vector<Value>
spmvCsr(const CsrEncoded &csr, std::span<const Value> x)
{
    const Index p = csr.tileSize();
    std::vector<Value> y(p, Value(0));
    for (Index r = 0; r < p; ++r) {
        Value acc = 0;
        for (Index i = csr.rowStart(r); i < csr.rowEnd(r); ++i)
            acc += csr.values[i] * x[csr.colInx[i]];
        y[r] = acc;
    }
    return y;
}

std::vector<Value>
spmvCsc(const CscEncoded &csc, std::span<const Value> x)
{
    const Index p = csc.tileSize();
    std::vector<Value> y(p, Value(0));
    for (Index c = 0; c < p; ++c)
        for (Index i = csc.colStart(c); i < csc.colEnd(c); ++i)
            y[csc.rowInx[i]] += csc.values[i] * x[c];
    return y;
}

std::vector<Value>
spmvBcsr(const BcsrEncoded &bcsr, std::span<const Value> x)
{
    const Index p = bcsr.tileSize();
    const Index b = bcsr.blockSize();
    std::vector<Value> y(p, Value(0));
    const Index grid = p / b;
    for (Index br = 0; br < grid; ++br) {
        for (Index i = bcsr.blockRowStart(br); i < bcsr.blockRowEnd(br);
             ++i) {
            const Index col0 = bcsr.colInx[i];
            const auto &flat = bcsr.values[i];
            for (Index j = 0; j < b * b; ++j)
                y[br * b + j / b] += flat[j] * x[col0 + j % b];
        }
    }
    return y;
}

std::vector<Value>
spmvCoo(const CooEncoded &coo, std::span<const Value> x)
{
    std::vector<Value> y(coo.tileSize(), Value(0));
    for (std::size_t i = 0; i < coo.values.size(); ++i)
        y[coo.rowInx[i]] += coo.values[i] * x[coo.colInx[i]];
    return y;
}

std::vector<Value>
spmvDok(const DokEncoded &dok, std::span<const Value> x)
{
    std::vector<Value> y(dok.tileSize(), Value(0));
    for (const auto &[key, value] : dok.table) {
        const Index row = static_cast<Index>(key >> 32);
        const Index col = static_cast<Index>(key & 0xffffffffULL);
        y[row] += value * x[col];
    }
    return y;
}

std::vector<Value>
spmvLil(const LilEncoded &lil, std::span<const Value> x)
{
    const Index p = lil.tileSize();
    std::vector<Value> y(p, Value(0));
    for (Index c = 0; c < p; ++c) {
        for (Index level = 0; level < lil.height(); ++level) {
            const Index row = lil.rowAt(level, c);
            if (row == LilEncoded::endMarker)
                break;
            y[row] += lil.valueAt(level, c) * x[c];
        }
    }
    return y;
}

std::vector<Value>
spmvEll(const EllEncoded &ell, std::span<const Value> x)
{
    const Index p = ell.tileSize();
    std::vector<Value> y(p, Value(0));
    for (Index r = 0; r < p; ++r) {
        Value acc = 0;
        for (Index slot = 0; slot < ell.width(); ++slot) {
            const Index col = ell.colAt(r, slot);
            if (col == EllEncoded::padMarker)
                break;
            acc += ell.valueAt(r, slot) * x[col];
        }
        y[r] = acc;
    }
    return y;
}

std::vector<Value>
spmvSell(const SellEncoded &sell, std::span<const Value> x)
{
    const Index p = sell.tileSize();
    const Index c = sell.sliceHeight();
    std::vector<Value> y(p, Value(0));
    for (std::size_t s = 0; s < sell.slices.size(); ++s) {
        const auto &slice = sell.slices[s];
        const Index base = static_cast<Index>(s) * c;
        for (Index r = 0; r < c; ++r) {
            Value acc = 0;
            for (Index slot = 0; slot < slice.width; ++slot) {
                const auto at = static_cast<std::size_t>(r) * slice.width +
                                slot;
                const Index col = slice.colInx[at];
                if (col == SellEncoded::padMarker)
                    break;
                acc += slice.values[at] * x[col];
            }
            y[base + r] = acc;
        }
    }
    return y;
}

std::vector<Value>
spmvDia(const DiaEncoded &dia, std::span<const Value> x)
{
    const Index p = dia.tileSize();
    std::vector<Value> y(p, Value(0));
    for (const auto &diag : dia.diagonals) {
        const std::int32_t d = diag.number;
        const Index row_begin = d < 0 ? static_cast<Index>(-d) : 0;
        const Index row_end =
            d < 0 ? p : static_cast<Index>(static_cast<std::int32_t>(p) -
                                           d);
        for (Index r = row_begin; r < row_end; ++r) {
            const Index c =
                static_cast<Index>(static_cast<std::int32_t>(r) + d);
            y[r] += diag.values[DiaEncoded::slotForRow(r, d)] * x[c];
        }
    }
    return y;
}

std::vector<Value>
spmvJds(const JdsEncoded &jds, std::span<const Value> x)
{
    const Index p = jds.tileSize();
    std::vector<Value> y(p, Value(0));
    const std::span<const Index> jd = jds.jdPtr();
    const std::span<const Index> perm = jds.perm();
    const std::span<const Index> cols = jds.colInx();
    const Index width = static_cast<Index>(jd.size()) - 1;
    for (Index j = 0; j < width; ++j) {
        const Index begin = jd[j];
        const Index end = jd[j + 1];
        for (Index i = begin; i < end; ++i) {
            const Index row = perm[i - begin];
            y[row] += jds.values[i] * x[cols[i]];
        }
    }
    return y;
}

std::vector<Value>
spmvSellCs(const SellCsEncoded &scs, std::span<const Value> x)
{
    const Index p = scs.tileSize();
    const Index c = scs.sliceHeight();
    std::vector<Value> y(p, Value(0));
    for (std::size_t s = 0; s < scs.slices.size(); ++s) {
        const auto &slice = scs.slices[s];
        const Index base = static_cast<Index>(s) * c;
        for (Index k = 0; k < c; ++k) {
            Value acc = 0;
            for (Index slot = 0; slot < slice.width; ++slot) {
                const auto at = static_cast<std::size_t>(k) * slice.width +
                                slot;
                const Index col = slice.colInx[at];
                if (col == SellCsEncoded::padMarker)
                    break;
                acc += slice.values[at] * x[col];
            }
            y[scs.perm[base + k]] = acc;
        }
    }
    return y;
}

std::vector<Value>
spmvBitmap(const BitmapEncoded &bitmap, std::span<const Value> x)
{
    const Index p = bitmap.tileSize();
    std::vector<Value> y(p, Value(0));
    std::size_t next = 0;
    for (Index r = 0; r < p; ++r) {
        Value acc = 0;
        for (Index c = 0; c < p; ++c)
            if (bitmap.test(r, c))
                acc += bitmap.values[next++] * x[c];
        y[r] = acc;
    }
    return y;
}

std::vector<Value>
spmvEllCoo(const EllCooEncoded &hybrid, std::span<const Value> x)
{
    const Index p = hybrid.tileSize();
    std::vector<Value> y(p, Value(0));
    for (Index r = 0; r < p; ++r) {
        for (Index slot = 0; slot < hybrid.width(); ++slot) {
            const Index col = hybrid.colAt(r, slot);
            if (col == EllCooEncoded::padMarker)
                break;
            y[r] += hybrid.valueAt(r, slot) * x[col];
        }
    }
    for (std::size_t i = 0; i < hybrid.overflowValues.size(); ++i) {
        y[hybrid.overflowRows[i]] +=
            hybrid.overflowValues[i] * x[hybrid.overflowCols[i]];
    }
    return y;
}

} // namespace

std::vector<Value>
spmvDense(const Tile &tile, std::span<const Value> x)
{
    checkOperand(tile.size(), x, "spmvDense");
    const Index p = tile.size();
    std::vector<Value> y(p, Value(0));
    const std::vector<TileNonzero> &nz = tile.nonzeros();
    const std::vector<Index> &rowStart = tile.features().rowStart;
    std::vector<Value> row(p);
    for (Index r = 0; r < p; ++r) {
        std::fill(row.begin(), row.end(), Value(0));
        for (Index i = rowStart[r]; i < rowStart[r + 1]; ++i)
            row[nz[i].col] = nz[i].value;
        y[r] = treeDot(row, x);
    }
    return y;
}

std::vector<Value>
spmvEncoded(const EncodedTile &encoded, std::span<const Value> x)
{
    checkOperand(encoded.tileSize(), x, "spmvEncoded");
    switch (encoded.kind()) {
      case FormatKind::Dense: {
        const auto &dense = encodedAs<DenseEncoded>(encoded,
                                                    FormatKind::Dense);
        const Index p = dense.tileSize();
        std::vector<Value> y(p, Value(0));
        for (Index r = 0; r < p; ++r) {
            std::span<const Value> row(
                dense.values.data() + static_cast<std::size_t>(r) * p, p);
            y[r] = treeDot(row, x);
        }
        return y;
      }
      case FormatKind::CSR:
        return spmvCsr(encodedAs<CsrEncoded>(encoded, FormatKind::CSR), x);
      case FormatKind::CSC:
        return spmvCsc(encodedAs<CscEncoded>(encoded, FormatKind::CSC), x);
      case FormatKind::BCSR:
        return spmvBcsr(encodedAs<BcsrEncoded>(encoded, FormatKind::BCSR),
                        x);
      case FormatKind::COO:
        return spmvCoo(encodedAs<CooEncoded>(encoded, FormatKind::COO), x);
      case FormatKind::DOK:
        return spmvDok(encodedAs<DokEncoded>(encoded, FormatKind::DOK), x);
      case FormatKind::LIL:
        return spmvLil(encodedAs<LilEncoded>(encoded, FormatKind::LIL), x);
      case FormatKind::ELL:
        return spmvEll(encodedAs<EllEncoded>(encoded, FormatKind::ELL), x);
      case FormatKind::SELL:
        return spmvSell(encodedAs<SellEncoded>(encoded, FormatKind::SELL),
                        x);
      case FormatKind::DIA:
        return spmvDia(encodedAs<DiaEncoded>(encoded, FormatKind::DIA), x);
      case FormatKind::JDS:
        return spmvJds(encodedAs<JdsEncoded>(encoded, FormatKind::JDS), x);
      case FormatKind::ELLCOO:
        return spmvEllCoo(
            encodedAs<EllCooEncoded>(encoded, FormatKind::ELLCOO), x);
      case FormatKind::SELLCS:
        return spmvSellCs(
            encodedAs<SellCsEncoded>(encoded, FormatKind::SELLCS), x);
      case FormatKind::BITMAP:
        return spmvBitmap(
            encodedAs<BitmapEncoded>(encoded, FormatKind::BITMAP), x);
    }
    panic("spmvEncoded: unknown format kind");
}

std::vector<Value>
spmvPartitioned(const Partitioning &parts, FormatKind kind,
                std::span<const Value> x, const FormatRegistry &registry)
{
    const Index p = parts.partitionSize;
    const std::size_t padded_cols =
        static_cast<std::size_t>(parts.gridCols) * p;
    COPERNICUS_FATAL_IF(
        x.size() > padded_cols,
        "spmvPartitioned: operand longer than the padded width");

    std::vector<Value> padded_x(padded_cols, Value(0));
    std::copy(x.begin(), x.end(), padded_x.begin());

    std::vector<Value> y(static_cast<std::size_t>(parts.gridRows) * p,
                         Value(0));
    const FormatCodec &codec = registry.codec(kind);
    for (const Tile &tile : parts.tiles) {
        const auto encoded = codec.encode(tile);
        const std::span<const Value> segment(
            padded_x.data() + static_cast<std::size_t>(tile.tileCol()) * p,
            p);
        const auto partial = spmvEncoded(*encoded, segment);
        const std::size_t base =
            static_cast<std::size_t>(tile.tileRow()) * p;
        for (Index r = 0; r < p; ++r)
            y[base + r] += partial[r];
    }
    return y;
}

} // namespace copernicus
