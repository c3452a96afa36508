#include "formats/sellcs_format.hh"

#include <algorithm>

#include "common/arena.hh"
#include "common/status.hh"

namespace copernicus {

std::string
SellCsCodec::paramsViolation(Index sliceHeight, Index window)
{
    if (sliceHeight == 0)
        return "SELL-C-sigma slice height must be > 0";
    if (window == 0 || window % sliceHeight != 0)
        return "SELL-C-sigma window must be a multiple of the slice "
               "height";
    return "";
}

SellCsCodec::SellCsCodec(Index sliceHeight, Index window)
    : c(sliceHeight), sigma(window)
{
    const std::string why = paramsViolation(sliceHeight, window);
    COPERNICUS_FATAL_IF(!why.empty(), why);
}

std::unique_ptr<EncodedTile>
SellCsCodec::encode(const Tile &tile) const
{
    const Index p = tile.size();
    COPERNICUS_FATAL_IF(p % sigma != 0,
                        "SELL-C-sigma window must divide the tile size");
    const auto &nz = tile.nonzeros();
    const TileStats &feat = tile.features();
    auto encoded = std::make_unique<SellCsEncoded>(p, feat.nnz, c,
                                                   sigma);

    Arena &arena = encodeArena();
    const ArenaScope scope(arena);

    // Per-window descending counting sort over the row lengths —
    // stable (ties keep original order), allocation-free, and the
    // exact permutation std::stable_sort produced before.
    const std::vector<Index> &row_nnz = feat.rowNnz;
    encoded->perm.resize(p);
    Index *perm = encoded->perm.data();
    Index *start = arena.alloc<Index>(static_cast<std::size_t>(p) + 2);
    for (Index base = 0; base < p; base += sigma) {
        std::fill(start, start + p + 2, Index(0));
        for (Index k = base; k < base + sigma; ++k)
            ++start[row_nnz[k] + 1];
        // start[len] = first slot for key len, longest first:
        // suffix-sum the counts from the top of the key domain down.
        Index running = 0;
        for (Index len = p;; --len) {
            const Index count = start[len + 1];
            start[len + 1] = running;
            running += count;
            if (len == 0)
                break;
        }
        for (Index k = base; k < base + sigma; ++k)
            perm[base + start[row_nnz[k] + 1]++] = k;
    }

    // Sliced ELL over the permuted rows. sigma is a multiple of C, so
    // every slice lies inside one sorted window and its width is the
    // length of its first (longest) row; each row's nonzero run
    // scatters flat off the canonical view via rowStart.
    const TileNonzero *entries = nz.data();
    encoded->slices.reserve(p / c);
    for (Index base = 0; base < p; base += c) {
        SellSlice slice;
        slice.width = row_nnz[perm[base]];
        slice.values.assign(static_cast<std::size_t>(c) * slice.width,
                            Value(0));
        slice.colInx.assign(static_cast<std::size_t>(c) * slice.width,
                            SellCsEncoded::padMarker);
        Value *vals = slice.values.data();
        Index *cols = slice.colInx.data();
        for (Index k = 0; k < c; ++k) {
            const Index row = perm[base + k];
            const TileNonzero *run = entries + feat.rowStart[row];
            const Index len = row_nnz[row];
            Value *vrow = vals + static_cast<std::size_t>(k) * slice.width;
            Index *crow = cols + static_cast<std::size_t>(k) * slice.width;
            for (Index i = 0; i < len; ++i) {
                vrow[i] = run[i].value;
                crow[i] = run[i].col;
            }
        }
        encoded->slices.push_back(std::move(slice));
    }
    return encoded;
}

void
SellCsCodec::decodeInto(const EncodedTile &encoded,
                        TileBuilder &tile) const
{
    const auto &scs = encodedAs<SellCsEncoded>(encoded,
                                               FormatKind::SELLCS);
    const Index p = scs.tileSize();
    const Index height = scs.sliceHeight();
    tile.reset(p);
    tile.reserve(scs.nnz());
    for (std::size_t s = 0; s < scs.slices.size(); ++s) {
        const auto &slice = scs.slices[s];
        const Index base = static_cast<Index>(s) * height;
        for (Index k = 0; k < height; ++k) {
            const Index row = scs.perm[base + k];
            for (Index slot = 0; slot < slice.width; ++slot) {
                const auto at = static_cast<std::size_t>(k) *
                                slice.width + slot;
                const Index col = slice.colInx[at];
                if (col == SellCsEncoded::padMarker)
                    break;
                tile.set(row, col, slice.values[at]);
            }
        }
    }
}

} // namespace copernicus
