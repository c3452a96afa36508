#include "hls/decompressor.hh"

#include "formats/registry.hh"
#include "formats/schedule_spec.hh"
#include "hls/schedule_ir.hh"

namespace copernicus {

namespace {

/**
 * Entries (12 bytes each) a thread's decode builder keeps between
 * calls: a dense tile up to p = 256. A decode that needed more frees
 * its storage before verifyDecompression() returns.
 */
constexpr std::size_t keptDecodeEntries = std::size_t(1) << 16;

/**
 * Resolve the format's schedule spec against this tile's real trip
 * counts and fold it: every per-format formula of Listings 1-7 lives
 * in the declarative schedule IR. @p decoded is the tile the encoding
 * reconstructs.
 */
DecompressCost
modelCost(const EncodedTile &encoded, const Tile &decoded,
          const HlsConfig &config)
{
    const TileFeatures features = extractScheduleFeatures(encoded, decoded);
    DecompressCost cost;
    cost.decompressCycles = walkScheduleCycles(scheduleSpec(encoded.kind()),
                                               config, features);
    cost.rowsProduced = features.producedRows;
    cost.tileSize = encoded.tileSize();
    return cost;
}

} // namespace

DecompressCost
verifyDecompression(const EncodedTile &encoded, const Tile &source,
                    const HlsConfig &config)
{
    // Each thread decodes into one builder that keeps its storage from
    // call to call; decodeInto() resets it and reserves the encoded
    // nnz. Whatever the outcome, storage past keptDecodeEntries is
    // freed on return, so no lane holds on to a large tile's decode.
    thread_local TileBuilder decoded(1);
    struct Shrink
    {
        ~Shrink() { decoded.shrink(keptDecodeEntries); }
    } shrinkOnReturn;
    defaultCodec(encoded.kind()).decodeInto(encoded, decoded);
    COPERNICUS_PANIC_IF(!decoded.matches(source),
                        "pipeline: decompressor model corrupted a tile");
    return modelCost(encoded, source, config);
}

DecompressResult
simulateDecompression(const EncodedTile &encoded, const HlsConfig &config)
{
    Tile decoded = defaultCodec(encoded.kind()).decode(encoded);
    return {modelCost(encoded, decoded, config), std::move(decoded)};
}

double
sigmaOverhead(const DecompressCost &result, Index p,
              const HlsConfig &config)
{
    const double t_dot = static_cast<double>(config.dotLatency(p));
    const double numerator =
        static_cast<double>(result.decompressCycles) +
        static_cast<double>(result.rowsProduced) * t_dot;
    return numerator / (static_cast<double>(p) * t_dot);
}

Cycles
computeCycles(const DecompressCost &result, const HlsConfig &config)
{
    return result.decompressCycles +
           Cycles(result.rowsProduced) * config.dotLatency(result.tileSize);
}

} // namespace copernicus
