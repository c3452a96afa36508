#include "formats/bcsr_format.hh"

#include <algorithm>

#include "common/arena.hh"
#include "common/status.hh"

namespace copernicus {

std::string
BcsrCodec::paramsViolation(Index blockSize)
{
    return blockSize == 0 ? "BCSR block size must be positive" : "";
}

BcsrCodec::BcsrCodec(Index blockSize) : block(blockSize)
{
    const std::string why = paramsViolation(blockSize);
    COPERNICUS_FATAL_IF(!why.empty(), why);
}

std::unique_ptr<EncodedTile>
BcsrCodec::encode(const Tile &tile) const
{
    const Index p = tile.size();
    COPERNICUS_FATAL_IF(p % block != 0,
                        "BCSR block size must divide the partition size");
    const auto &nz = tile.nonzeros();
    const TileStats &feat = tile.features();
    auto encoded = std::make_unique<BcsrEncoded>(p, feat.nnz, block);

    Arena &arena = encodeArena();
    const ArenaScope scope(arena);

    // One reusable scatter plane spans a whole block-row: block column
    // bc owns plane[bc * b*b ..), zeroed lazily on first touch so the
    // (common) untouched blocks cost nothing.
    const Index grid = p / block;
    const std::size_t blockArea = static_cast<std::size_t>(block) * block;
    Value *plane = arena.alloc<Value>(grid * blockArea);
    char *touched = arena.alloc<char>(grid);
    std::fill(touched, touched + grid, char(0));
    ArenaVec<Index> touchedCols(arena, grid);

    const Index maxBlocks =
        std::min(feat.nnz, static_cast<Index>(grid) * grid);
    encoded->offsets.reserve(grid);
    encoded->colInx.reserve(maxBlocks);
    encoded->values.reserve(maxBlocks);

    const TileNonzero *entries = nz.data();
    Index running = 0;
    for (Index br = 0; br < grid; ++br) {
        touchedCols.clear();
        const Index rowBase = br * block;
        for (Index r = rowBase; r < rowBase + block; ++r) {
            const Index rowEnd = feat.rowStart[r + 1];
            for (Index i = feat.rowStart[r]; i < rowEnd; ++i) {
                const TileNonzero &e = entries[i];
                const Index bc = e.col / block;
                Value *blk = plane + bc * blockArea;
                if (!touched[bc]) {
                    touched[bc] = 1;
                    touchedCols.push_back(bc);
                    std::fill(blk, blk + blockArea, Value(0));
                }
                blk[static_cast<std::size_t>(r - rowBase) * block +
                    (e.col - bc * block)] = e.value;
            }
        }
        // Emit the touched blocks in ascending order — exactly the
        // blocks a dense block scan would keep.
        std::sort(touchedCols.begin(), touchedCols.end());
        for (const Index bc : touchedCols) {
            const Value *blk = plane + bc * blockArea;
            encoded->colInx.push_back(bc * block);
            encoded->values.emplace_back(blk, blk + blockArea);
            touched[bc] = 0;
            ++running;
        }
        encoded->offsets.push_back(running);
    }
    return encoded;
}

void
BcsrCodec::decodeInto(const EncodedTile &encoded,
                      TileBuilder &tile) const
{
    const auto &bcsr = encodedAs<BcsrEncoded>(encoded, FormatKind::BCSR);
    const Index p = bcsr.tileSize();
    const Index b = bcsr.blockSize();
    const Index grid = p / b;
    tile.reset(p);
    tile.reserve(bcsr.nnz());
    // Listing 2: drows[j / b][col0 + j mod b] = values[i][j]. Each of
    // a block's b rows is one run; taking a block-row's rows in order,
    // and its blocks in column order within each, keeps the writes
    // row-major.
    for (Index br = 0; br < grid; ++br) {
        const Index first = bcsr.blockRowStart(br);
        const Index last = bcsr.blockRowEnd(br);
        for (Index r = 0; r < b; ++r)
            for (Index i = first; i < last; ++i)
                tile.setRun(br * b + r, bcsr.colInx[i],
                            bcsr.values[i].data() +
                                static_cast<std::size_t>(r) * b,
                            b);
    }
}

} // namespace copernicus
