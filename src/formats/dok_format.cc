#include "formats/dok_format.hh"

#include <algorithm>

#include "common/arena.hh"

namespace copernicus {

namespace {

/** Visit @p table's entries as (row, col, value) in sorted order. */
template <typename Fn>
void
forEachSorted(const std::unordered_map<std::uint64_t, Value> &table,
              Fn &&fn)
{
    // The packed key sorts row-major, so one sort of the keys yields
    // the canonical COO ordering. The keys live in arena scratch, so
    // serializing a tile allocates nothing.
    Arena &arena = encodeArena();
    const ArenaScope scope(arena);
    std::uint64_t *const keys = arena.alloc<std::uint64_t>(table.size());
    std::uint64_t *end = keys;
    for (const auto &[key, value] : table)
        *end++ = key;
    std::sort(keys, end);
    for (const std::uint64_t *key = keys; key != end; ++key)
        fn(static_cast<Index>(*key >> 32),
           static_cast<Index>(*key & 0xffffffffULL), table.at(*key));
}

} // namespace

std::unique_ptr<EncodedTile>
DokCodec::encode(const Tile &tile) const
{
    const auto &nz = tile.nonzeros();
    auto encoded = std::make_unique<DokEncoded>(tile.size(), tile.nnz());
    encoded->table.reserve(nz.size());
    for (const TileNonzero &e : nz)
        encoded->table.emplace(DokEncoded::key(e.row, e.col), e.value);
    return encoded;
}

void
DokEncoded::declareStreams(StreamDeclarer &declare) const
{
    const Bytes entries = table.size();
    declare.image(StreamClass::Value, "values", 0, entries * valueBytes,
                  [this](auto &out) {
                      forEachSorted(table, [&](Index, Index, Value v) {
                          appendScalarBytes(out, &v, 1);
                      });
                  });
    declare.image(StreamClass::Index, "rowInx", 0, entries * indexBytes,
                  [this](auto &out) {
                      forEachSorted(table, [&](Index row, Index, Value) {
                          appendScalarBytes(out, &row, 1);
                      });
                  });
    declare.image(StreamClass::Index, "colInx", 0, entries * indexBytes,
                  [this](auto &out) {
                      forEachSorted(table, [&](Index, Index col, Value) {
                          appendScalarBytes(out, &col, 1);
                      });
                  });
}

void
DokCodec::decodeInto(const EncodedTile &encoded,
                     TileBuilder &tile) const
{
    const auto &dok = encodedAs<DokEncoded>(encoded, FormatKind::DOK);
    tile.reset(dok.tileSize());
    tile.reserve(dok.nnz());
    for (const auto &[key, value] : dok.table) {
        const Index row = static_cast<Index>(key >> 32);
        const Index col = static_cast<Index>(key & 0xffffffffULL);
        tile.set(row, col, value);
    }
}

} // namespace copernicus
