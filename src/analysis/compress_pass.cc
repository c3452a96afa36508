#include "analysis/compress_pass.hh"

#include "compress/second_stage.hh"

namespace copernicus {

void
checkTileCompression(const LintOptions &, const Tile &tile,
                     const EncodedTile &encoded, LintReport &report)
{
    const std::string name(formatName(encoded.kind()));
    const TileCompression result = compressTile(encoded);
    const Bytes raw = result.rawBytes();
    const Bytes stored = result.storedBytes();
    if (stored > raw)
        report.error("COP100", "compress", name,
                     "second stage stored " + std::to_string(stored) +
                         " bytes for " + std::to_string(raw) +
                         " raw on a p=" + std::to_string(tile.size()) +
                         " tile with " + std::to_string(tile.nnz()) +
                         " non-zeros; STORE passthrough must cap the "
                         "cost");
    // The per-stream contract behind the total: STORE is free of
    // framing, everything else pays its header but must still win.
    for (const CompressedStream &stream : result.streams)
        if (stream.storedBytes() > stream.rawBytes)
            report.error("COP100", "compress", name,
                         std::string("stream '") + stream.name +
                             "' stored " +
                             std::to_string(stream.storedBytes()) +
                             " bytes for " +
                             std::to_string(stream.rawBytes) +
                             " raw; selection must fall back to STORE");
}

} // namespace copernicus
