/**
 * @file
 * Section 5.2 companion: the scheduled form of each decompressor's
 * inner loop (Listings 1-7), as the mini HLS scheduler derives it —
 * pipeline depth, initiation interval, and the cycle cost of a
 * representative trip count. These are the numbers the analytic cycle
 * model consumes as constants.
 *
 * The second table is driven by the declarative schedule IR
 * (formats/schedule_spec): for every registered format it prints the
 * spec's segment structure plus the closed-form and walked cycle
 * counts on one representative tile — the same spec the decompressor
 * walker and copernicus_lint consume.
 */

#include <iostream>
#include <sstream>

#include "analysis/table_writer.hh"
#include "bench_common.hh"
#include "formats/registry.hh"
#include "hls/hls_config.hh"
#include "hls/schedule_ir.hh"
#include "hlsc/decoder_bodies.hh"
#include "hlsc/schedule.hh"
#include "matrix/tile.hh"

using namespace copernicus;

namespace {

/** Compact one-line rendering of a spec's loop nest. */
std::string
describeSegments(const ScheduleSpec &spec)
{
    if (spec.segments.empty())
        return "(none)";
    std::ostringstream out;
    for (std::size_t i = 0; i < spec.segments.size(); ++i) {
        const SegmentSpec &seg = spec.segments[i];
        if (i > 0)
            out << " + ";
        out << seg.name << ":"
            << scheduleFeatureName(seg.trips) << "x"
            << cycleKnobName(seg.depth);
    }
    return out.str();
}

/** Representative tile: band + a stray entry, encodable by any codec. */
Tile
representativeTile()
{
    TileBuilder tile(16);
    for (Index r = 0; r < 16; ++r) {
        tile.set(r, r, Value(1) + Value(r));
        if (r + 1 < 16)
            tile.set(r, r + 1, Value(2));
    }
    tile.set(13, 2, Value(7));
    return tile.build();
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::banner("Listing schedules",
                      "derived pipeline depth and II per decompressor "
                      "inner loop (Listings 1-7)", argc, argv);

    struct Entry
    {
        const char *listing;
        LoopBody body;
    };
    const Entry entries[] = {
        {"Listing 1 (CSR entry)", csrInnerLoopBody()},
        {"Listing 2 (BCSR block)", bcsrBlockBody(4)},
        {"Listing 3 (CSC scan)", cscScanLoopBody()},
        {"Listing 4 (LIL merge)", lilMergeBody(16)},
        {"Listing 5 (ELL row)", ellRowBody(6)},
        {"Listing 6 (COO tuple)", cooLoopBody()},
        {"Listing 6b (DOK tuple)", dokLoopBody()},
        {"Listing 7 (DIA scan)", diaRowScanBody()},
    };

    TableWriter table({"listing", "body", "ops", "depth", "II",
                       "cycles @ 16 trips"});
    for (const auto &entry : entries) {
        const auto schedule = scheduleBody(entry.body);
        table.addRow({entry.listing, entry.body.name,
                      std::to_string(entry.body.ops.size()),
                      std::to_string(schedule.depth),
                      std::to_string(schedule.ii),
                      std::to_string(schedule.pipelinedCycles(16))});
    }
    table.print(std::cout);

    const HlsConfig cfg;
    std::cout << "\nanalytic-model constants these must match: "
                 "loopDepth=" << cfg.loopDepth
              << ", hash II=" << cfg.hashCycles
              << ", LIL per-row II=2, DIA " << cfg.bramPorts
              << " diagonals/cycle (asserted in tests/test_hlsc.cc)\n";

    // The declarative schedule IR, format by format, evaluated on one
    // representative 16x16 tile by both evaluators. copernicus_lint's
    // oracle asserts the last two columns always agree.
    const Tile tile = representativeTile();
    const FormatRegistry &registry = defaultRegistry();
    TableWriter specs({"format", "listing", "nest",
                       "closed-form", "walked"});
    for (FormatKind kind : allFormats()) {
        const ScheduleSpec &spec = scheduleSpec(kind);
        const auto encoded = registry.codec(kind).encode(tile);
        const TileFeatures features =
            extractScheduleFeatures(*encoded, tile);
        specs.addRow({std::string(formatName(kind)), spec.listing,
                      describeSegments(spec),
                      std::to_string(
                          closedFormCycles(spec, cfg, features)),
                      std::to_string(
                          walkScheduleCycles(spec, cfg, features))});
    }
    std::cout << "\n";
    specs.print(std::cout);
    return 0;
}
