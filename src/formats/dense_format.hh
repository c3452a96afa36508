/**
 * @file
 * Dense "format": the uncompressed baseline of the characterization.
 *
 * All p*p values are transferred, zero or not; there is no metadata and
 * no decompression logic, so sigma is exactly 1 by Eq. 1.
 */

#ifndef COPERNICUS_FORMATS_DENSE_FORMAT_HH
#define COPERNICUS_FORMATS_DENSE_FORMAT_HH

#include "formats/codec.hh"

namespace copernicus {

/** Encoded form: the row-major values, nothing else. */
class DenseEncoded : public EncodedTile
{
  public:
    DenseEncoded(Index tileSize, Index nnz, std::vector<Value> values)
        : EncodedTile(tileSize, nnz), values(std::move(values))
    {}

    FormatKind kind() const override { return FormatKind::Dense; }

    void
    declareStreams(StreamDeclarer &declare) const override
    {
        declare.array(StreamClass::Value, "values", 0, values);
    }

    /** Row-major p*p values including zeros. */
    std::vector<Value> values;
};

/** Codec for the dense baseline. */
class DenseCodec : public FormatCodec
{
  public:
    FormatKind kind() const override { return FormatKind::Dense; }
    std::unique_ptr<EncodedTile> encode(const Tile &tile) const override;
    void decodeInto(const EncodedTile &encoded,
                    TileBuilder &tile) const override;
};

} // namespace copernicus

#endif // COPERNICUS_FORMATS_DENSE_FORMAT_HH
