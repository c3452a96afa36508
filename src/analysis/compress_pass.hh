/**
 * @file
 * Second-stage compression invariant pass (rule COP100).
 *
 * compress/second_stage.hh promises storedBytes() <= rawBytes(): a
 * STORE stream ships its raw bytes unchanged and a compressed stream
 * may only win by being smaller (header included), so the second
 * stage can never inflate what crosses the memory interface. The
 * transfer model and the bandwidth-utilization numbers lean on that
 * promise, so this pass checks it as a lint invariant over the same
 * synthetic tile sweep the grammar and oracle passes use, in every
 * format — any tile where selection regresses past STORE is an error
 * naming the format and tile shape.
 */

#ifndef COPERNICUS_ANALYSIS_COMPRESS_PASS_HH
#define COPERNICUS_ANALYSIS_COMPRESS_PASS_HH

#include "analysis/schedule_check.hh"

namespace copernicus {

/** COP100 for one tile encoded by @p codec. */
void checkTileCompression(const FormatCodec &codec, const Tile &tile,
                          LintReport &report);

/** The pass: the synthetic tile sweep across every format. */
void runCompressPass(const LintOptions &options, LintReport &report);

} // namespace copernicus

#endif // COPERNICUS_ANALYSIS_COMPRESS_PASS_HH
