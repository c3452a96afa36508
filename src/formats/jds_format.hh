/**
 * @file
 * Jagged Diagonal Storage codec (Section 2's JDS variant).
 *
 * Rows are sorted by descending non-zero count (the permutation is kept),
 * then stored as jagged diagonals: diagonal j holds the j-th non-zero of
 * every row long enough to have one. No padding is stored; the jagged
 * pointer array delimits the diagonals.
 */

#ifndef COPERNICUS_FORMATS_JDS_FORMAT_HH
#define COPERNICUS_FORMATS_JDS_FORMAT_HH

#include <span>

#include "formats/codec.hh"

namespace copernicus {

/**
 * JDS-encoded tile.
 *
 * The three index-typed arrays (colInx, perm, jdPtr) share one backing
 * vector: the encode hot path pays one allocation for all of them
 * instead of three, which is a measurable share of the per-tile cost
 * at paper densities (most tiles hold a handful of non-zeros). The
 * spans partition `meta` in declaration order.
 */
class JdsEncoded : public EncodedTile
{
  public:
    JdsEncoded(Index tileSize, Index nnz) : EncodedTile(tileSize, nnz) {}

    FormatKind kind() const override { return FormatKind::JDS; }

    /** The permutation rides with the jagged-diagonal pointers. */
    void
    declareStreams(StreamDeclarer &declare) const override
    {
        declare.array(StreamClass::Value, "values", 0, values);
        declare.array(StreamClass::Index, "colInx", 1, colInx());
        declare.array(StreamClass::Index, "perm", 2, perm());
        declare.array(StreamClass::Offset, "jdPtr", 2, jdPtr());
    }

    /** Non-zero values, jagged-diagonal-major. */
    std::vector<Value> values;

    /**
     * Index-typed metadata, one allocation:
     * [colInx (nnz) | perm (p) | jdPtr (width + 1)].
     */
    std::vector<Index> meta;

    /** Column index of each value. */
    std::span<Index> colInx() { return {meta.data(), nnz()}; }
    std::span<const Index>
    colInx() const
    {
        return {meta.data(), nnz()};
    }

    /** perm[k] = original row stored at sorted position k. */
    std::span<Index>
    perm()
    {
        return {meta.data() + nnz(), tileSize()};
    }
    std::span<const Index>
    perm() const
    {
        return {meta.data() + nnz(), tileSize()};
    }

    /** Start of each jagged diagonal in values/colInx; length width+1. */
    std::span<Index>
    jdPtr()
    {
        const std::size_t head = std::size_t(nnz()) + tileSize();
        return {meta.data() + head, meta.size() - head};
    }
    std::span<const Index>
    jdPtr() const
    {
        const std::size_t head = std::size_t(nnz()) + tileSize();
        return {meta.data() + head, meta.size() - head};
    }
};

/** Codec for JDS. */
class JdsCodec : public FormatCodec
{
  public:
    FormatKind kind() const override { return FormatKind::JDS; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    void decodeInto(const EncodedTile &encoded,
                    TileBuilder &tile) const override;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_JDS_FORMAT_HH
