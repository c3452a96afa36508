/**
 * @file
 * DIA codec (Section 2, Figure 1h; decompression Listing 7).
 *
 * Each non-zero diagonal is stored as a fixed-length row of
 * diags[NUM_DIAGONALS][MAX_DIAGONAL_LEN]: one header element holding the
 * diagonal number followed by p value slots (shorter diagonals are
 * padded), exactly the buffer shape Listing 7 declares. The header and
 * padding are why DIA's bandwidth utilization is slightly below one even
 * for a pure diagonal matrix, approaching one as the partition grows.
 */

#ifndef COPERNICUS_FORMATS_DIA_FORMAT_HH
#define COPERNICUS_FORMATS_DIA_FORMAT_HH

#include <cstdint>

#include "formats/codec.hh"

namespace copernicus {

/** One stored diagonal: header number plus p padded value slots. */
struct DiaDiagonal
{
    /** Diagonal number: col - row (negative below the main diagonal). */
    std::int32_t number = 0;

    /** p value slots; slot index per Listing 7's DiaInxForRow. */
    std::vector<Value> values;
};

/** DIA-encoded tile. */
class DiaEncoded : public EncodedTile
{
  public:
    DiaEncoded(Index tileSize, Index nnz) : EncodedTile(tileSize, nnz) {}

    FormatKind kind() const override { return FormatKind::DIA; }

    /**
     * One wire: each diagonal row is p+1 words, the header number
     * followed by the padded value slots. The payloads split the
     * numbers from the values.
     */
    void
    declareStreams(StreamDeclarer &declare) const override
    {
        const Bytes rows = diagonals.size();
        declare.image(StreamClass::Value, "values", 0,
                      rows * p * valueBytes, [this](auto &out) {
                          for (const DiaDiagonal &d : diagonals)
                              appendScalarBytes(out, d.values.data(),
                                                d.values.size());
                      });
        declare.image(StreamClass::Offset, "headers", 0,
                      rows * sizeof(std::int32_t), [this](auto &out) {
                          for (const DiaDiagonal &d : diagonals)
                              appendScalarBytes(out, &d.number, 1);
                      });
    }

    /**
     * Value-slot index of @p row on diagonal @p d (Listing 7's
     * DiaInxForRow): position along the diagonal from its start.
     */
    static Index
    slotForRow(Index row, std::int32_t d)
    {
        return d < 0 ? static_cast<Index>(static_cast<std::int32_t>(row) +
                                          d)
                     : row;
    }

    /** Stored non-zero diagonals, ordered by diagonal number. */
    std::vector<DiaDiagonal> diagonals;
};

/** Codec for DIA. */
class DiaCodec : public FormatCodec
{
  public:
    FormatKind kind() const override { return FormatKind::DIA; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    void decodeInto(const EncodedTile &encoded,
                    TileBuilder &tile) const override;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_DIA_FORMAT_HH
