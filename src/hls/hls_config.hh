/**
 * @file
 * HlsConfig: parameters of the modelled HLS platform (Section 4.1).
 *
 * The paper's platform is a Vivado-HLS design on a Zynq xc7z020 at
 * 250 MHz fed by DDR3 through AXI-stream interfaces. Copernicus models
 * that platform with the standard HLS scheduling rules (pipelined loops
 * run depth + II*(trips-1) cycles; unrolled loops collapse to one
 * iteration over parallel BRAM banks); the constants below are the
 * model's knobs and the ablation benches sweep them.
 */

#ifndef COPERNICUS_HLS_HLS_CONFIG_HH
#define COPERNICUS_HLS_HLS_CONFIG_HH

#include "common/math.hh"
#include "common/types.hh"
#include "hls/dram.hh"

namespace copernicus {

/** Platform parameters; defaults model the paper's setup. */
struct HlsConfig
{
    /** FPGA clock, MHz (paper: 250). */
    double clockMhz = 250.0;

    /** Bits transferred per cycle by one AXI-stream lane (64-bit AXIS). */
    Index axiLaneBits = 64;

    /**
     * Parallel AXI streamlines. The paper streams offsets and indices
     * on two lines in parallel; the longest defines memory latency.
     */
    Index streamlines = 2;

    /** Fixed DDR3 burst/handshake setup cost per partition transfer. */
    Cycles burstSetupCycles = 8;

    /**
     * When true, memory latency comes from the first-order DDR3
     * timing model (dram below) instead of the flat burst cost; the
     * streams of a partition then share one channel.
     */
    bool useDramModel = false;

    /** DDR3 parameters used when useDramModel is set. */
    DramConfig dram;

    /**
     * Charge the transfer of the SpMV vector operand's p-element
     * segment with every partition. The paper's metrics exclude it
     * (COO's utilization is exactly 1/3, which only holds for the
     * compressed-partition bytes), so this defaults off; enabling it
     * models a platform without an on-chip vector cache. The extra
     * bytes affect memory latency only, never bandwidth utilization,
     * matching the paper's metric definitions. timePartition applies
     * it, so the stream pipeline, the event sim, the multi-PE model
     * and planFormats all see it; the multi-PE model's shared-channel
     * byte count leaves the segment out.
     */
    bool streamVectorOperand = false;

    /**
     * Second-stage stream compression (compress/second_stage.hh):
     * when true, every encoded stream is byte-compressed (per-class
     * codec selection with STORE fallback) before the DDR transfer
     * model sees it, so transfer latency and total bytes reflect the
     * post-compression sizes. Useful bytes are unchanged — the metric
     * still charges what the kernel consumes — so enabling this can
     * only raise bandwidth utilization. timePartition applies it, so
     * the stream pipeline, the event sim, the multi-PE model and
     * planFormats all see it. Off by default: the paper's numbers are
     * first-stage only.
     */
    bool secondStageCompression = false;

    /** BRAM read latency in cycles (block RAM is registered). */
    Cycles bramReadLatency = 2;

    /** BRAM ports per bank (true dual port on 7-series). */
    Index bramPorts = 2;

    /** Pipelined-loop depth: address calc + BRAM read + write-back. */
    Cycles loopDepth = 4;

    /** Extra cycles per DOK hash probe. */
    Cycles hashCycles = 2;

    /** Floating multiplier latency, cycles. */
    Cycles multLatency = 1;

    /** Latency per adder-tree stage, cycles. */
    Cycles adderStageLatency = 1;

    /** Result write-back latency, cycles. */
    Cycles writebackLatency = 1;

    /** Bytes per cycle across one lane. */
    Bytes
    laneBytesPerCycle() const
    {
        return Bytes(axiLaneBits) / 8;
    }

    /**
     * Latency of one dot product through the width-p engine: multiplier
     * array, balanced adder tree of depth log2(p), write-back. This is
     * the T_dot of Eq. 1.
     */
    Cycles
    dotLatency(Index p) const
    {
        return multLatency + Cycles(log2Ceil(p)) * adderStageLatency +
               writebackLatency;
    }

    /** Seconds per cycle. */
    double
    secondsPerCycle() const
    {
        return 1.0 / (clockMhz * 1e6);
    }
};

} // namespace copernicus

#endif // COPERNICUS_HLS_HLS_CONFIG_HH
