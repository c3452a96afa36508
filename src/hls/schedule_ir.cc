#include "hls/schedule_ir.hh"

namespace copernicus {

Cycles
walkScheduleCycles(const ScheduleSpec &spec, const HlsConfig &config,
                   const TileFeatures &features)
{
    if (features.value(spec.guard) == 0)
        return 0;

    Cycles total = 0;
    for (const SegmentSpec &segment : spec.segments) {
        const Cycles trips = features.value(segment.trips);
        const Cycles depth = knobCycles(segment.depth, config, features);
        switch (segment.kind) {
          case SegmentKind::Fixed:
            // Serialized accesses: each trip pays the full scale.
            for (Cycles t = 0; t < trips; ++t)
                total += depth;
            break;
          case SegmentKind::Pipelined: {
            // The first iteration drains the pipeline; every later one
            // issues an initiation interval after its predecessor.
            const Cycles ii = knobCycles(segment.ii, config, features);
            for (Cycles t = 0; t < trips; ++t)
                total += t == 0 ? depth : ii;
            break;
          }
          case SegmentKind::Serial: {
            // The inner pipeline drains completely each outer trip.
            const Cycles inner = features.value(segment.innerTrips);
            const Cycles ii = knobCycles(segment.ii, config, features);
            for (Cycles outer = 0; outer < trips; ++outer)
                for (Cycles t = 0; t < inner; ++t)
                    total += t == 0 ? depth : ii;
            break;
          }
          case SegmentKind::RateMax: {
            // Two concurrent streams; the region ends when the slower
            // one drains.
            const Cycles rateB =
                knobCycles(segment.rateB, config, features);
            Cycles streamA = 0;
            Cycles streamB = 0;
            for (Cycles t = 0; t < trips; ++t)
                streamA += depth;
            for (Cycles t = 0; t < features.value(segment.innerTrips);
                 ++t)
                streamB += rateB;
            total += std::max(streamA, streamB);
            break;
          }
        }
    }
    return total;
}

} // namespace copernicus
