/**
 * @file
 * Second-stage compression invariant pass (rule COP100).
 *
 * compress/second_stage.hh promises storedBytes() <= rawBytes(): a
 * STORE stream ships its raw bytes unchanged and a compressed stream
 * may only win by being smaller (header included), so the second
 * stage can never inflate what crosses the memory interface. The
 * transfer model and the bandwidth-utilization numbers lean on that
 * promise, so this pass checks it as a lint invariant on every tile
 * of the synthetic sweep, in every format: a per-tile check fed the
 * same encodings as the grammar and oracle checks by the pass
 * manager's one sweep. Any tile where selection regresses past STORE
 * is an error naming the format and tile shape.
 */

#ifndef COPERNICUS_ANALYSIS_COMPRESS_PASS_HH
#define COPERNICUS_ANALYSIS_COMPRESS_PASS_HH

#include "analysis/schedule_check.hh"

namespace copernicus {

/** COP100 for @p encoded, the encoding of @p tile. */
void checkTileCompression(const LintOptions &options, const Tile &tile,
                          const EncodedTile &encoded, LintReport &report);

} // namespace copernicus

#endif // COPERNICUS_ANALYSIS_COMPRESS_PASS_HH
