#include "matrix/tile.hh"

#include <algorithm>

#include "common/arena.hh"

namespace copernicus {

namespace {

/**
 * Stable counting sort of @p n entries from @p in to @p out by
 * @p key (row or column, each < p); @p count holds p + 1 slots.
 */
template <typename Key>
void
countingSort(const TileNonzero *in, std::size_t n, TileNonzero *out,
             Index p, Index *count, Key key)
{
    std::fill(count, count + p + 1, Index(0));
    for (std::size_t i = 0; i < n; ++i)
        ++count[key(in[i]) + 1];
    for (Index k = 0; k < p; ++k)
        count[k + 1] += count[k];
    for (std::size_t i = 0; i < n; ++i)
        out[count[key(in[i])]++] = in[i];
}

/**
 * Scan a row-sorted stream: panic on a cell written twice; return
 * whether every row's columns ascend.
 */
bool
columnsAscend(const TileNonzero *nz, std::size_t n)
{
    bool ascend = true;
    for (std::size_t i = 1; i < n; ++i) {
        if (nz[i].row != nz[i - 1].row)
            continue;
        if (nz[i].col == nz[i - 1].col)
            panic("Tile cell written twice");
        ascend = ascend && nz[i - 1].col < nz[i].col;
    }
    return ascend;
}

} // namespace

TileStats
Tile::computeStats(Index p, const std::vector<TileNonzero> &nz)
{
    TileStats feat;
    feat.nnz = static_cast<Index>(nz.size());
    feat.rowNnz.assign(p, 0);
    feat.colNnz.assign(p, 0);
    feat.rowStart.assign(static_cast<std::size_t>(p) + 1, 0);
    Arena &arena = encodeArena();
    ArenaScope scope(arena);
    const std::size_t diagonals = 2 * static_cast<std::size_t>(p) - 1;
    char *diag = arena.alloc<char>(diagonals);
    std::fill(diag, diag + diagonals, char(0));
    for (std::size_t i = 0; i < nz.size(); ++i) {
        const TileNonzero &e = nz[i];
        COPERNICUS_DCHECK(e.row < p && e.col < p,
                          "Tile nonzero out of range");
        COPERNICUS_DCHECK(e.value != Value(0),
                          "Tile nonzero stream holds a zero");
        COPERNICUS_DCHECK(i == 0 || nz[i - 1].row < e.row ||
                              (nz[i - 1].row == e.row &&
                               nz[i - 1].col < e.col),
                          "Tile nonzero stream is not row-major");
        ++feat.rowNnz[e.row];
        ++feat.colNnz[e.col];
        diag[static_cast<std::size_t>(p) - 1 - e.row + e.col] = 1;
    }
    for (Index r = 0; r < p; ++r) {
        feat.rowStart[r + 1] = feat.rowStart[r] + feat.rowNnz[r];
        feat.maxRowNnz = std::max(feat.maxRowNnz, feat.rowNnz[r]);
        feat.nnzRows += feat.rowNnz[r] != 0;
    }
    for (Index c = 0; c < p; ++c) {
        feat.maxColNnz = std::max(feat.maxColNnz, feat.colNnz[c]);
        feat.nnzCols += feat.colNnz[c] != 0;
    }
    for (std::size_t d = 0; d < diagonals; ++d)
        feat.nnzDiagonals += diag[d] != 0;
    return feat;
}

void
TileBuilder::canonicalize()
{
    if (rowMajor)
        return;
    const std::size_t n = entries.size();
    Arena &arena = encodeArena();
    ArenaScope scope(arena);
    TileNonzero *scratch = arena.alloc<TileNonzero>(n);
    Index *count = arena.alloc<Index>(static_cast<std::size_t>(p) + 1);
    const auto byRow = [](const TileNonzero &e) { return e.row; };
    const auto byCol = [](const TileNonzero &e) { return e.col; };
    // Column-major and permuted-row emission keep each row's columns
    // ascending, so one pass by row is enough; hash order needs the
    // column pass first (LSD radix order).
    countingSort(entries.data(), n, scratch, p, count, byRow);
    if (columnsAscend(scratch, n)) {
        std::copy(scratch, scratch + n, entries.begin());
    } else {
        countingSort(entries.data(), n, scratch, p, count, byCol);
        countingSort(scratch, n, entries.data(), p, count, byRow);
        // Sorted now: this pass only rejects a repeated cell.
        columnsAscend(entries.data(), n);
    }
    rowMajor = true;
}

Tile
TileBuilder::build()
{
    if (built)
        panic("TileBuilder::build() called twice");
    built = true;
    canonicalize();
    return Tile(p, tRow, tCol, std::move(entries));
}

bool
TileBuilder::matches(const Tile &tile)
{
    if (built)
        panic("TileBuilder::matches() called after build()");
    canonicalize();
    return p == tile.size() && entries == tile.nonzeros();
}

} // namespace copernicus
