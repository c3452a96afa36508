/**
 * @file
 * Declarative schedule IR for the decompressor loop nests.
 *
 * Each format declares its decode loop nest as data: an ordered list of
 * schedule segments (header reads, pipelined loops with a depth and an
 * initiation interval, serial re-scans, rate-bound merge regions),
 * with symbolic trip counts resolved against a TileFeatures bundle
 * extracted from a real encoded tile. The dynamic cycle walker
 * (hls/decompressor), the static schedule analyzer
 * (analysis/schedule_check) and bench_listing_schedules all consume
 * this one description, so the scheduling rules of Listings 1-7 exist
 * in exactly one place instead of as per-format arithmetic.
 *
 * The IR deliberately stays below the HLS layer: specs are pure data
 * plus feature extraction over encoded tiles, so the registry can
 * expose them; turning a spec into cycles needs an HlsConfig and lives
 * in hls/schedule_ir.
 */

#ifndef COPERNICUS_FORMATS_SCHEDULE_SPEC_HH
#define COPERNICUS_FORMATS_SCHEDULE_SPEC_HH

#include <vector>

#include "common/types.hh"
#include "formats/encoded_tile.hh"
#include "matrix/tile.hh"

namespace copernicus {

/**
 * Symbolic trip count / multiplicity, resolved per encoded tile by
 * extractScheduleFeatures().
 */
enum class ScheduleFeature
{
    One,             ///< constant 1 (headers, single fills)
    TileSize,        ///< partition edge length p
    Log2TileSize,    ///< comparator/adder tree depth over p lanes
    Entries,         ///< primary-loop trip count (entries, blocks, ...)
    EntriesAtLeastOne, ///< max(Entries, 1): a scan runs even when empty
    OverflowEntries, ///< COO overflow list of the ELL+COO hybrid
    NonEmptyGroups,  ///< rows / block-rows with at least one entry
    GroupHeaders,    ///< per-group headers: slices, jagged/stored diagonals
    LongestGroup,    ///< longest column list (LIL's feeder bound)
    MaskWords,       ///< packed occupancy words (Bitmap)
};

/** Printable feature name. */
std::string_view scheduleFeatureName(ScheduleFeature feature);

/** Cycles-per-unit scale factors, resolved against HlsConfig. */
enum class CycleKnob
{
    UnitCycle,       ///< 1 cycle
    TwoCycles,       ///< 2 cycles (LIL's produce II: compare + select)
    BramReadLatency, ///< registered BRAM read
    LoopDepth,       ///< pipelined decode-loop depth
    HashedLoopDepth, ///< loop depth + hash probe (DOK)
    HashCycles,      ///< DOK's probe II
    DiagonalScan,    ///< ceil(GroupHeaders / bramPorts): DIA's row scan
};

/** Printable knob name. */
std::string_view cycleKnobName(CycleKnob knob);

/** Structural kind of one schedule segment. */
enum class SegmentKind
{
    /** trips x scale cycles of serialized accesses (headers, fills). */
    Fixed,

    /** Pipelined loop: depth + ii * (trips - 1); zero trips are free. */
    Pipelined,

    /**
     * Serial outer loop whose body is a pipelined inner loop that
     * drains completely each outer trip (CSC's per-row re-scan).
     */
    Serial,

    /**
     * Two concurrent streams; the region ends when the slower drains:
     * max(trips x rate, tripsB x rateB). LIL's merge (producer vs
     * longest feeder) and Bitmap's mask/value race.
     */
    RateMax,
};

/** One segment of a decode schedule. */
struct SegmentSpec
{
    SegmentKind kind = SegmentKind::Fixed;

    /** Short name for diagnostics ("entry loop", "row turnaround"). */
    const char *name = "";

    /**
     * Fixed: access count. Pipelined: trip count. Serial: outer trip
     * count. RateMax: stream-A trip count.
     */
    ScheduleFeature trips = ScheduleFeature::One;

    /**
     * Fixed: cycles per access. Pipelined: pipeline depth. Serial:
     * inner-loop depth. RateMax: stream-A cycles per item.
     */
    CycleKnob depth = CycleKnob::UnitCycle;

    /** Pipelined/Serial: initiation interval. */
    CycleKnob ii = CycleKnob::UnitCycle;

    /** Serial: inner trip count. RateMax: stream-B trip count. */
    ScheduleFeature innerTrips = ScheduleFeature::One;

    /** RateMax: stream-B cycles per item. */
    CycleKnob rateB = CycleKnob::UnitCycle;

    /**
     * Declared unroll factor of the loop body: 1 = rolled, 0 = fully
     * unrolled over parallel BRAM banks (BCSR's block copy, ELL's
     * width-wide sweep). Consumed by the static analyzer.
     */
    Index unroll = 1;

    /**
     * BRAM accesses per initiation interval on the busiest single
     * bank. More than HlsConfig::bramPorts is an over-subscription
     * hazard the analyzer flags.
     */
    Index bankAccessesPerII = 1;
};

/** Claims about the scheduled inner loop, checked against hlsc. */
struct ScheduleClaims
{
    /** Pipeline depth the model charges for the inner loop. */
    CycleKnob depth = CycleKnob::LoopDepth;

    /** Initiation interval the model charges. */
    CycleKnob ii = CycleKnob::UnitCycle;

    /**
     * Whether the claimed depth must equal the hlsc-derived depth
     * exactly (false where the model prices the fill separately, as
     * for LIL's comparator tree or DOK's probe).
     */
    bool checkDepth = true;

    /**
     * Expected depth of the balanced reduction tree inside the body,
     * as a function of p: 0 = no tree, 1 = log2Ceil(p) comparator
     * levels (LIL). The analyzer flags a longer critical chain as an
     * unbalanced tree.
     */
    bool balancedTreeOverLanes = false;
};

/** The declarative decode schedule of one format. */
struct ScheduleSpec
{
    FormatKind format = FormatKind::Dense;

    /** Paper listing this nest reproduces ("Listing 1"), or "". */
    const char *listing = "";

    /**
     * The whole nest collapses to zero cycles when this feature is
     * zero (CSR skips empty tiles; ELL cannot). One = never collapses.
     */
    ScheduleFeature guard = ScheduleFeature::One;

    /** The loop nest, in program order. */
    std::vector<SegmentSpec> segments;

    /** Inner-loop claims validated against the hlsc-derived schedule. */
    ScheduleClaims claims;

    /** True when hlsc/decoder_bodies models this format's inner loop. */
    bool hasInnerBody = false;
};

/**
 * Trip counts of one encoded tile, resolved per format by
 * extractScheduleFeatures(). All counts are data-dependent: they come
 * from walking the real encoded arrays, never from densities.
 */
struct TileFeatures
{
    Index tileSize = 0;
    Cycles entries = 0;
    Cycles overflowEntries = 0;
    Cycles nonEmptyGroups = 0;
    Cycles groupHeaders = 0;
    Cycles longestGroup = 0;
    Cycles maskWords = 0;

    /** Rows handed to the dot engine (Eq. 1's nnz_rows term). */
    Index producedRows = 0;

    /** Resolve a symbolic feature against this tile. */
    Cycles value(ScheduleFeature feature) const;
};

/**
 * The canonical schedule of @p kind. Every FormatKind has one; Dense's
 * is the empty nest (no decompression stage).
 */
const ScheduleSpec &scheduleSpec(FormatKind kind);

/**
 * Walk @p encoded's real arrays and resolve every feature its format's
 * spec can reference.
 *
 * @param encoded The encoded tile (any format).
 * @param decoded A tile equal to what @p encoded decodes to: the source
 *        tile once the decode has been checked against it in place
 *        (verifyDecompression()), or a decoded tile. Its TileStats
 *        supply the non-zero row count the paper's Eq. 1 uses, in O(1).
 */
TileFeatures extractScheduleFeatures(const EncodedTile &encoded,
                                     const Tile &decoded);

} // namespace copernicus

#endif // COPERNICUS_FORMATS_SCHEDULE_SPEC_HH
