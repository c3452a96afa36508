/**
 * @file
 * Tile: one p x p partition of a sparse matrix.
 *
 * The paper applies every compression format to fixed-size partitions of
 * the original matrix (Section 4.1), never to the full matrix, so the
 * format codecs and decompressor models all operate on Tiles.
 *
 * A Tile is an immutable value that holds only its canonical nonzero
 * stream (row-major (row, col, value) triplets) and the TileStats bundle
 * computed from it at construction (per-row/column histograms, maxima,
 * diagonal population). The codecs, schedule feature extraction and
 * the decode check all read those two, so every use costs
 * O(nnz + p): no tile holds a dense p x p plane, and nothing is built
 * lazily, so concurrent const access needs no synchronisation.
 *
 * Tiles come from two places. The partitioners hand over a stream that
 * is already canonical. Everything that writes elements one at a time
 * (the decoders, tests) goes through TileBuilder, which canonicalizes
 * the writes and whose range and duplicate checks stay on in every
 * build, because decoders face malformed encodings. A decode that is
 * only checked against its source tile never becomes a Tile:
 * TileBuilder::matches() compares the canonical writes in place.
 */

#ifndef COPERNICUS_MATRIX_TILE_HH
#define COPERNICUS_MATRIX_TILE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <utility>
#include <vector>

#include "common/status.hh"
#include "common/types.hh"

namespace copernicus {

/**
 * One non-zero of a tile, in tile-local coordinates. Equality compares
 * the value's bit pattern, so a NaN equals the same NaN and a decode
 * check passes on a tile that holds one; no tile stores -0, so this is
 * never looser than float ==.
 */
struct TileNonzero
{
    Index row = 0;
    Index col = 0;
    Value value = 0;

    friend bool
    operator==(const TileNonzero &a, const TileNonzero &b)
    {
        return a.row == b.row && a.col == b.col &&
               std::bit_cast<std::uint32_t>(a.value) ==
                   std::bit_cast<std::uint32_t>(b.value);
    }
};

/**
 * Sparsity features of one tile, computed in one O(nnz + p) pass and
 * shared by every consumer (codecs, schedule IR).
 */
struct TileStats
{
    /** Non-zero count. */
    Index nnz = 0;

    /** Non-zeros per row / per column; length p each. */
    std::vector<Index> rowNnz;
    std::vector<Index> colNnz;

    /**
     * Prefix sums of rowNnz into the canonical nonzero list: row r
     * occupies [rowStart[r], rowStart[r + 1]). Length p + 1.
     */
    std::vector<Index> rowStart;

    /** Longest row / column, in non-zeros. */
    Index maxRowNnz = 0;
    Index maxColNnz = 0;

    /** Rows / columns with at least one non-zero. */
    Index nnzRows = 0;
    Index nnzCols = 0;

    /** Populated diagonals (distinct col - row values). */
    Index nnzDiagonals = 0;
};

/** Square tile of a partitioned sparse matrix. */
class Tile
{
  public:
    /**
     * Construct from the canonical nonzero stream (the partitioners'
     * O(nnz) path; element-by-element writers use TileBuilder): @p nz
     * must be sorted row-major with in-range coordinates and non-zero
     * values. Without @p nz the tile is all zero.
     *
     * @param size Partition edge length p (8, 16 or 32 in the paper).
     * @param tileRow Partition-grid row coordinate.
     * @param tileCol Partition-grid column coordinate.
     * @param nz Canonical nonzero stream.
     */
    explicit Tile(Index size, Index tileRow = 0, Index tileCol = 0,
                  std::vector<TileNonzero> nz = {})
        : p(size), tRow(tileRow), tCol(tileCol), nz(std::move(nz))
    {
        if (size == 0)
            fatal("Tile size must be positive");
        feat = computeStats(p, this->nz);
    }

    /** Partition edge length p. */
    Index size() const { return p; }

    /** Partition-grid row coordinate of this tile. */
    Index tileRow() const { return tRow; }

    /** Partition-grid column coordinate of this tile. */
    Index tileCol() const { return tCol; }

    /**
     * Element read, bounds-checked: a binary search of the row's slice
     * of the nonzero stream.
     */
    Value
    operator()(Index row, Index col) const
    {
        if (row >= p || col >= p)
            panic("Tile access out of range");
        const auto first = nz.begin() + feat.rowStart[row];
        const auto last = nz.begin() + feat.rowStart[row + 1];
        const auto it = std::lower_bound(
            first, last, col,
            [](const TileNonzero &e, Index c) { return e.col < c; });
        return it != last && it->col == col ? it->value : Value(0);
    }

    /**
     * The canonical nonzero stream: tile-local (row, col, value)
     * triplets sorted row-major. Row r is the slice
     * [features().rowStart[r], features().rowStart[r + 1]).
     */
    const std::vector<TileNonzero> &nonzeros() const { return nz; }

    /** Sparsity features, computed at construction. */
    const TileStats &features() const { return feat; }

    /** Number of non-zero elements. */
    Index nnz() const { return feat.nnz; }

    /** Number of non-zero elements in @p row. */
    Index
    rowNnz(Index row) const
    {
        if (row >= p)
            panic("Tile rowNnz out of range");
        return feat.rowNnz[row];
    }

    /** Number of non-zero elements in @p col. */
    Index
    colNnz(Index col) const
    {
        if (col >= p)
            panic("Tile colNnz out of range");
        return feat.colNnz[col];
    }

    /** Number of rows with at least one non-zero. */
    Index nnzRows() const { return feat.nnzRows; }

    /** Length of the longest row, in non-zeros. */
    Index maxRowNnz() const { return feat.maxRowNnz; }

    /** Length of the longest column, in non-zeros. */
    Index maxColNnz() const { return feat.maxColNnz; }

    /** True iff the tile holds no non-zero element. */
    bool empty() const { return nnz() == 0; }

    /** Equality compares contents only, not grid coordinates. */
    friend bool
    operator==(const Tile &a, const Tile &b)
    {
        return a.p == b.p && a.nz == b.nz;
    }

  private:
    /** The one O(nnz + p) feature pass over a canonical stream. */
    static TileStats computeStats(Index p,
                                  const std::vector<TileNonzero> &nz);

    Index p;
    Index tRow;
    Index tCol;
    std::vector<TileNonzero> nz;
    TileStats feat;
};

/**
 * Builds a Tile from element writes in any order: the decoders' and
 * tests' way to make tiles.
 *
 * Every write is range-checked in every build, and writing one cell
 * twice is rejected, since decoders replay untrusted encodings. build()
 * and matches() canonicalize in O(nnz + p): writes that arrive
 * row-major (CSR, ELL, DIA, ...) are already the result, and any other
 * order (column-major, permuted rows, hash order) gets a stable
 * counting sort in scratch from encodeArena().
 */
class TileBuilder
{
  public:
    /** Start an all-zero tile; parameters as for Tile. */
    explicit TileBuilder(Index size, Index tileRow = 0, Index tileCol = 0)
        : p(size), tRow(tileRow), tCol(tileCol)
    {
        if (size == 0)
            fatal("Tile size must be positive");
    }

    /**
     * Start over as an all-zero tile of edge @p size, keeping the
     * grid coordinates and, unless build() took it, the storage of
     * earlier writes.
     */
    void
    reset(Index size)
    {
        if (size == 0)
            fatal("Tile size must be positive");
        p = size;
        entries.clear();
        rowMajor = true;
        built = false;
    }

    /**
     * Pre-size for @p count writes, capped at p^2 (the most a tile
     * holds), so an untrusted count cannot force a huge allocation.
     */
    void
    reserve(std::size_t count)
    {
        entries.reserve(
            std::min(count, static_cast<std::size_t>(p) * p));
    }

    /**
     * Record A(row, col) = @p value. A zero (or -0) value adds no
     * entry. Throws PanicError when the cell is out of range.
     */
    void
    set(Index row, Index col, Value value)
    {
        if (row >= p || col >= p)
            panic("Tile write out of range");
        if (value == Value(0))
            return;
        if (rowMajor && !entries.empty()) {
            const TileNonzero &last = entries.back();
            rowMajor = last.row < row || (last.row == row && last.col < col);
        }
        entries.push_back({row, col, value});
    }

    /**
     * Record A(row, col + k) = values[k] for every k < @p count: set()
     * on a run of cells in one row, range-checked once for the run.
     * Zero and -0 values add no entry, as in set(). Throws PanicError
     * when any cell of the run is out of range.
     */
    void
    setRun(Index row, Index col, const Value *values, Index count)
    {
        if (row >= p || col > p || count > p - col)
            panic("Tile write out of range");
        const std::size_t before = entries.size();
        for (Index k = 0; k < count; ++k)
            if (values[k] != Value(0))
                entries.push_back({row, col + k, values[k]});
        // The run ascends, so only its first entry can break the
        // row-major order of the writes.
        if (rowMajor && before > 0 && entries.size() > before) {
            const TileNonzero &last = entries[before - 1];
            rowMajor = last.row < row ||
                       (last.row == row && last.col < entries[before].col);
        }
    }

    /**
     * Drop the writes and free their storage when it has room for more
     * than @p maxEntries; otherwise change nothing. A builder kept for
     * reuse calls it between tiles, so it never holds on to a large
     * tile's storage.
     */
    void
    shrink(std::size_t maxEntries)
    {
        if (entries.capacity() > maxEntries)
            std::vector<TileNonzero>().swap(entries);
    }

    /**
     * The tile holding every write; it takes over the builder's
     * storage, so a builder builds once. Throws PanicError when a cell
     * was written twice or build() was called before.
     */
    Tile build();

    /**
     * Whether the writes so far make exactly @p tile's contents (the
     * same p and canonical nonzero stream; grid coordinates are not
     * compared), checked in place: no Tile is built and no TileStats
     * computed. Canonicalizes as build() does and throws PanicError in
     * the same cases; the builder can still build() afterwards.
     */
    bool matches(const Tile &tile);

  private:
    /**
     * Sort the writes into the canonical stream in place; PanicError
     * on a cell written twice.
     */
    void canonicalize();

    Index p;
    Index tRow;
    Index tCol;
    std::vector<TileNonzero> entries;

    /** Every write so far came after the previous one, row-major. */
    bool rowMajor = true;

    bool built = false;
};

} // namespace copernicus

#endif // COPERNICUS_MATRIX_TILE_HH
