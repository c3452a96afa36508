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

#include "hls/hls_config.hh"

namespace copernicus {

/**
 * Cycles to transfer a set of streams.
 *
 * @param streams Byte count of each first-stage wire (one entry per
 *        wire of EncodedTile::wireBytes(), or of the second-stage
 *        images summed per wire), plus any vector-operand segment.
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
