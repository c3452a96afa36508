#include "formats/jds_format.hh"

#include <algorithm>

#include "common/arena.hh"

namespace copernicus {

std::unique_ptr<EncodedTile>
JdsCodec::encode(const Tile &tile) const
{
    const Index p = tile.size();
    const auto &nz = tile.nonzeros();
    const TileStats &feat = tile.features();
    auto encoded = std::make_unique<JdsEncoded>(p, feat.nnz);

    Arena &arena = encodeArena();
    const ArenaScope scope(arena);

    // One allocation covers every index stream; jagged width (the
    // longest row) is known up front from the tile stats.
    const Index width = feat.maxRowNnz;
    encoded->meta.resize(std::size_t(feat.nnz) + p + width + 1);
    Index *cols = encoded->colInx().data();
    Index *perm = encoded->perm().data();
    Index *jd = encoded->jdPtr().data();

    // Descending counting sort over the row lengths — stable (ties
    // keep original order), allocation-free, and the exact permutation
    // std::stable_sort produced before. Keys never exceed the longest
    // row, so the count table stops there rather than at p.
    const std::vector<Index> &row_nnz = feat.rowNnz;
    Index *start = arena.alloc<Index>(std::size_t(width) + 2);
    std::fill(start, start + width + 2, Index(0));
    for (Index r = 0; r < p; ++r)
        ++start[row_nnz[r] + 1];
    Index running = 0;
    for (Index len = width;; --len) {
        const Index count = start[len + 1];
        start[len + 1] = running;
        running += count;
        if (len == 0)
            break;
    }
    for (Index r = 0; r < p; ++r)
        perm[start[row_nnz[r] + 1]++] = r;
    // The scatter bumped each key's cursor past its run, so
    // start[len + 1] now counts the rows with length >= len.

    // Jagged diagonal j holds one entry for every row longer than j,
    // and those rows are exactly sorted rows 0..count-1 in order, so
    // the pointers come straight from the length histogram.
    jd[0] = 0;
    Index acc = 0;
    for (Index j = 0; j < width; ++j) {
        acc += start[j + 2]; // rows with length >= j + 1
        jd[j + 1] = acc;
    }

    // With the pointers known up front, the diagonal-major emission
    // collapses to one flat pass over the canonical nonzero view:
    // entry j of sorted row k lands at jdPtr[j] + k.
    encoded->values.resize(nz.size());
    Value *values = encoded->values.data();
    const TileNonzero *entries = nz.data();
    for (Index k = 0; k < p; ++k) {
        const Index row = perm[k];
        const Index len = row_nnz[row];
        const TileNonzero *run = entries + feat.rowStart[row];
        for (Index j = 0; j < len; ++j) {
            const Index at = jd[j] + k;
            values[at] = run[j].value;
            cols[at] = run[j].col;
        }
    }
    return encoded;
}

void
JdsCodec::decodeInto(const EncodedTile &encoded,
                     TileBuilder &tile) const
{
    const auto &jds = encodedAs<JdsEncoded>(encoded, FormatKind::JDS);
    const Index p = jds.tileSize();
    tile.reset(p);
    tile.reserve(jds.nnz());
    const std::span<const Index> jd = jds.jdPtr();
    const std::span<const Index> perm = jds.perm();
    const std::span<const Index> cols = jds.colInx();
    const Index width = static_cast<Index>(jd.size()) - 1;
    for (Index j = 0; j < width; ++j) {
        const Index begin = jd[j];
        const Index end = jd[j + 1];
        // Diagonal j covers the first (end - begin) sorted rows.
        for (Index i = begin; i < end; ++i) {
            const Index row = perm[i - begin];
            tile.set(row, cols[i], jds.values[i]);
        }
    }
}

} // namespace copernicus
