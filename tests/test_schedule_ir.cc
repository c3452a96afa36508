/**
 * @file
 * Tests for the declarative schedule IR (formats/schedule_spec) and
 * its two evaluators (hls/schedule_ir): spec-table coverage, knob
 * resolution, feature extraction on hand-built tiles, guard collapse,
 * and closed-form-vs-walker agreement — the same oracle copernicus_lint
 * sweeps, pinned here on deterministic workloads so a drifting spec or
 * scheduling rule fails in-tree.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "formats/registry.hh"
#include "hls/decompressor.hh"
#include "hls/schedule_ir.hh"
#include "matrix/partitioner.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

/** p=8 tile with entries (0,0)=1, (0,5)=2, (3,0)=3. */
Tile
threeEntryTile()
{
    TileBuilder t(8);
    t.set(0, 0, 1);
    t.set(0, 5, 2);
    t.set(3, 0, 3);
    return t.build();
}

TileFeatures
featuresFor(FormatKind kind, const Tile &tile)
{
    const auto encoded = defaultCodec(kind).encode(tile);
    return extractScheduleFeatures(*encoded,
                                   defaultCodec(kind).decode(*encoded));
}

TEST(ScheduleSpecTest, EveryFormatHasASpec)
{
    for (FormatKind kind : allFormats()) {
        const ScheduleSpec &spec = scheduleSpec(kind);
        EXPECT_EQ(spec.format, kind) << formatName(kind);
        if (kind == FormatKind::Dense) {
            EXPECT_TRUE(spec.segments.empty());
            continue;
        }
        EXPECT_FALSE(spec.segments.empty()) << formatName(kind);
        for (const SegmentSpec &segment : spec.segments) {
            EXPECT_NE(segment.name[0], '\0') << formatName(kind);
            EXPECT_GE(segment.bankAccessesPerII, 1u)
                << formatName(kind);
        }
    }
}

TEST(ScheduleSpecTest, FeatureNamesAreStable)
{
    EXPECT_EQ(scheduleFeatureName(ScheduleFeature::Entries), "entries");
    EXPECT_EQ(cycleKnobName(CycleKnob::LoopDepth), "loop_depth");
}

TEST(ScheduleIrTest, KnobResolutionAgainstDefaultConfig)
{
    const HlsConfig cfg;
    TileFeatures features;
    EXPECT_EQ(knobCycles(CycleKnob::UnitCycle, cfg, features), 1u);
    EXPECT_EQ(knobCycles(CycleKnob::TwoCycles, cfg, features), 2u);
    EXPECT_EQ(knobCycles(CycleKnob::BramReadLatency, cfg, features),
              cfg.bramReadLatency);
    EXPECT_EQ(knobCycles(CycleKnob::LoopDepth, cfg, features),
              cfg.loopDepth);
    EXPECT_EQ(knobCycles(CycleKnob::HashedLoopDepth, cfg, features),
              cfg.loopDepth + cfg.hashCycles);
    EXPECT_EQ(knobCycles(CycleKnob::HashCycles, cfg, features),
              cfg.hashCycles);

    // DIA's per-row scan rate: ceil(storedDiagonals / bramPorts).
    features.groupHeaders = 5;
    EXPECT_EQ(knobCycles(CycleKnob::DiagonalScan, cfg, features), 3u);
    features.groupHeaders = 4;
    EXPECT_EQ(knobCycles(CycleKnob::DiagonalScan, cfg, features), 2u);
}

TEST(ScheduleIrTest, CsrFeaturesOnHandBuiltTile)
{
    const TileFeatures f = featuresFor(FormatKind::CSR,
                                       threeEntryTile());
    EXPECT_EQ(f.tileSize, 8u);
    EXPECT_EQ(f.entries, 3u);
    EXPECT_EQ(f.nonEmptyGroups, 2u);
    EXPECT_EQ(f.producedRows, 2u);
    EXPECT_EQ(f.value(ScheduleFeature::One), 1u);
    EXPECT_EQ(f.value(ScheduleFeature::EntriesAtLeastOne), 3u);
}

TEST(ScheduleIrTest, DiaFeaturesCountStoredDiagonals)
{
    // Entries (0,0), (0,5), (3,0) sit on diagonals 0, 5 and -3.
    const TileFeatures f = featuresFor(FormatKind::DIA,
                                       threeEntryTile());
    EXPECT_EQ(f.groupHeaders, 3u);
}

TEST(ScheduleIrTest, GuardedFormatsSkipEmptyTiles)
{
    const Tile empty(8);
    for (FormatKind kind : allFormats()) {
        const ScheduleSpec &spec = scheduleSpec(kind);
        const auto encoded = defaultCodec(kind).encode(empty);
        const TileFeatures features = extractScheduleFeatures(
            *encoded, defaultCodec(kind).decode(*encoded));
        const Cycles closed =
            closedFormCycles(spec, HlsConfig(), features);
        EXPECT_EQ(closed,
                  walkScheduleCycles(spec, HlsConfig(), features))
            << formatName(kind);
        if (features.value(spec.guard) == 0) {
            EXPECT_EQ(closed, 0u) << formatName(kind);
        }
    }
    // Spot pins: CSR's guard collapses an empty tile, ELL's cannot.
    EXPECT_EQ(closedFormCycles(
                  scheduleSpec(FormatKind::CSR), HlsConfig(),
                  featuresFor(FormatKind::CSR, empty)),
              0u);
    EXPECT_GT(closedFormCycles(
                  scheduleSpec(FormatKind::ELL), HlsConfig(),
                  featuresFor(FormatKind::ELL, empty)),
              0u);
}

TEST(ScheduleIrTest, ClosedFormMatchesWalkerOnRandomTiles)
{
    const HlsConfig cfg;
    Rng rng(99);
    for (Index p : {Index(8), Index(16), Index(32)}) {
        const auto parts = partition(randomMatrix(4 * p, 0.08, rng), p);
        std::size_t checked = 0;
        for (const Tile &tile : parts.tiles) {
            if (++checked > 6)
                break;
            for (FormatKind kind : allFormats()) {
                const ScheduleSpec &spec = scheduleSpec(kind);
                const auto encoded = defaultCodec(kind).encode(tile);
                const TileFeatures features = extractScheduleFeatures(
                    *encoded, defaultCodec(kind).decode(*encoded));
                EXPECT_EQ(closedFormCycles(spec, cfg, features),
                          walkScheduleCycles(spec, cfg, features))
                    << formatName(kind) << " p=" << p;
            }
        }
    }
}

TEST(ScheduleIrTest, WideFoldAgreesWithTheModelFold)
{
    // The overflow pass (COP061) folds at 128 bits through the same
    // templates; on real tiles that fold must equal the model's.
    using U128 = unsigned __int128;
    const HlsConfig cfg;
    Rng rng(7);
    for (Index p : {Index(8), Index(16), Index(32)}) {
        const auto parts = partition(bandMatrix(4 * p, 3, rng), p);
        for (const Tile &tile : parts.tiles) {
            for (FormatKind kind : allFormats()) {
                const ScheduleSpec &spec = scheduleSpec(kind);
                const TileFeatures features = featuresFor(kind, tile);
                EXPECT_TRUE(closedFormCycles<U128>(spec, cfg, features) ==
                            U128(closedFormCycles(spec, cfg, features)))
                    << formatName(kind) << " p=" << p;
                for (const SegmentSpec &segment : spec.segments)
                    EXPECT_TRUE(
                        segmentClosedFormCycles<U128>(segment, cfg,
                                                      features) ==
                        U128(segmentClosedFormCycles(segment, cfg,
                                                     features)))
                        << formatName(kind) << " " << segment.name;
            }
        }
    }
}

TEST(ScheduleIrTest, ClosedFormMatchesTheDynamicDecompressor)
{
    // The decompressor walks the same spec; the closed form must land
    // on the identical cycle count (the copernicus_lint oracle).
    const HlsConfig cfg;
    for (FormatKind kind : allFormats()) {
        const auto encoded =
            defaultCodec(kind).encode(threeEntryTile());
        const DecompressResult dynamic =
            simulateDecompression(*encoded, cfg);
        const TileFeatures features =
            extractScheduleFeatures(*encoded, dynamic.decoded);
        EXPECT_EQ(closedFormCycles(scheduleSpec(kind), cfg, features),
                  dynamic.decompressCycles)
            << formatName(kind);
        EXPECT_EQ(features.producedRows, dynamic.rowsProduced)
            << formatName(kind);
    }
}

TEST(ScheduleIrTest, NonDefaultConfigStaysConsistent)
{
    HlsConfig cfg;
    cfg.bramReadLatency = 3;
    cfg.loopDepth = 7;
    cfg.hashCycles = 5;
    cfg.bramPorts = 1;
    for (FormatKind kind : allFormats()) {
        const auto encoded =
            defaultCodec(kind).encode(threeEntryTile());
        const DecompressResult dynamic =
            simulateDecompression(*encoded, cfg);
        const TileFeatures features =
            extractScheduleFeatures(*encoded, dynamic.decoded);
        EXPECT_EQ(closedFormCycles(scheduleSpec(kind), cfg, features),
                  dynamic.decompressCycles)
            << formatName(kind);
    }
}

} // namespace
} // namespace copernicus
