/**
 * @file
 * Evaluators over the declarative schedule IR (formats/schedule_spec).
 *
 * Two deliberately independent computations of the same spec:
 *
 *  - closedFormCycles() folds each segment with the algebraic HLS
 *    scheduling rules (pipelined loop = depth + II*(trips-1), and so
 *    on). The static analyzer uses it to bound cycles without running
 *    anything.
 *  - walkScheduleCycles() advances the schedule trip by trip, the way
 *    the dynamic cycle walkers used to. The decompressor model
 *    (hls/decompressor) uses it.
 *
 * The closed form is written once, as templates over the count type
 * and the features type (anything with value(ScheduleFeature)). The
 * model folds real tiles in Cycles; the overflow pass
 * (analysis/overflow_pass) folds envelope-maximum features in
 * unsigned __int128 through the same code, so the range proof checks
 * the model itself rather than a copy of it.
 *
 * The model-vs-walker oracle (analysis/schedule_check) demands the two
 * agree exactly on every encoded tile, so a spec that the closed form
 * mis-folds — or a scheduling rule that drifts — fails loudly instead
 * of skewing a sweep.
 */

#ifndef COPERNICUS_HLS_SCHEDULE_IR_HH
#define COPERNICUS_HLS_SCHEDULE_IR_HH

#include <algorithm>

#include "common/status.hh"
#include "formats/schedule_spec.hh"
#include "hls/hls_config.hh"

namespace copernicus {

/**
 * Cycles for a loop under `#pragma HLS pipeline`: it completes
 * depth + ii*(trips-1) cycles after it starts; zero trips cost nothing.
 */
template <typename Count>
constexpr Count
pipelinedLoop(Count trips, Count depth, Count ii = 1)
{
    return trips == 0 ? 0 : depth + ii * (trips - 1);
}

/**
 * Resolve a cycle knob against the platform. DiagonalScan also needs
 * the tile (the per-row scan rate is ceil(GroupHeaders/bramPorts)).
 */
template <typename Count = Cycles, typename Features>
Count
knobCycles(CycleKnob knob, const HlsConfig &config,
           const Features &features)
{
    switch (knob) {
      case CycleKnob::UnitCycle: return 1;
      case CycleKnob::TwoCycles: return 2;
      case CycleKnob::BramReadLatency: return config.bramReadLatency;
      case CycleKnob::LoopDepth: return config.loopDepth;
      case CycleKnob::HashedLoopDepth:
        return Count(config.loopDepth) + config.hashCycles;
      case CycleKnob::HashCycles: return config.hashCycles;
      case CycleKnob::DiagonalScan: {
        const Count ports = std::max<Count>(config.bramPorts, 1);
        return (Count(features.value(ScheduleFeature::GroupHeaders)) +
                ports - 1) /
               ports;
      }
    }
    panic("unknown cycle knob");
}

/** Closed-form cycles of one segment, by the HLS scheduling rules. */
template <typename Count = Cycles, typename Features>
Count
segmentClosedFormCycles(const SegmentSpec &segment, const HlsConfig &config,
                        const Features &features)
{
    const Count trips = features.value(segment.trips);
    const Count depth = knobCycles<Count>(segment.depth, config, features);
    switch (segment.kind) {
      case SegmentKind::Fixed:
        return trips * depth;
      case SegmentKind::Pipelined:
        return pipelinedLoop(trips, depth,
                             knobCycles<Count>(segment.ii, config,
                                               features));
      case SegmentKind::Serial:
        return trips *
               pipelinedLoop(Count(features.value(segment.innerTrips)),
                             depth,
                             knobCycles<Count>(segment.ii, config,
                                               features));
      case SegmentKind::RateMax:
        return std::max(trips * depth,
                        Count(features.value(segment.innerTrips)) *
                            knobCycles<Count>(segment.rateB, config,
                                              features));
    }
    panic("unknown segment kind");
}

/** Closed-form decode cycles of the whole nest (0 if guarded off). */
template <typename Count = Cycles, typename Features>
Count
closedFormCycles(const ScheduleSpec &spec, const HlsConfig &config,
                 const Features &features)
{
    if (features.value(spec.guard) == 0)
        return 0;
    Count total = 0;
    for (const SegmentSpec &segment : spec.segments)
        total += segmentClosedFormCycles<Count>(segment, config, features);
    return total;
}

/**
 * Iterative decode cycles: advance every segment trip by trip and
 * stream by stream. Must match closedFormCycles() exactly; the oracle
 * enforces that.
 */
Cycles walkScheduleCycles(const ScheduleSpec &spec,
                          const HlsConfig &config,
                          const TileFeatures &features);

} // namespace copernicus

#endif // COPERNICUS_HLS_SCHEDULE_IR_HH
