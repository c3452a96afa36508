/**
 * @file
 * AXI-stream transfer model: how long moving one compressed partition
 * from memory into the BRAM input buffer takes.
 *
 * Streams are assigned to the configured number of parallel streamlines
 * longest-first (LPT); the busiest lane plus the DDR3 burst setup cost
 * defines the memory latency, matching the paper's "the longer
 * streamline defines the latency of memory access".
 */

#ifndef COPERNICUS_HLS_AXI_HH
#define COPERNICUS_HLS_AXI_HH

#include <span>

#include "formats/typed_stream.hh"
#include "hls/hls_config.hh"

namespace copernicus {

/**
 * Most streams one transfer prices: every wire of a partition read,
 * plus a vector-operand segment appended by a caller that lists the
 * segment after the full wire list.
 */
inline constexpr std::size_t maxTransferStreams = maxWires + 1;

/**
 * Cycles to transfer a set of streams, without allocating.
 *
 * @param streams Byte count of each first-stage wire (one entry per
 *        wire of EncodedTile::wireBytes(), or of the second-stage
 *        images summed per wire), plus any vector-operand segment; at
 *        most maxTransferStreams entries, more is a panic.
 * @param config Platform parameters.
 * @return Transfer cycles including burst setup; 0 for no bytes.
 */
Cycles transferCycles(std::span<const Bytes> streams,
                      const HlsConfig &config);

/**
 * Cycles to stream @p bytes out over one lane (memory-write stage).
 */
Cycles writebackCycles(Bytes bytes, const HlsConfig &config);

} // namespace copernicus

#endif // COPERNICUS_HLS_AXI_HH
