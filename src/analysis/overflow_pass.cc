#include "analysis/overflow_pass.hh"

#include <algorithm>
#include <cstdint>
#include <limits>
#include <type_traits>
#include <utility>

#include "analysis/source_scan.hh"
#include "common/math.hh"
#include "fpga/buffer_model.hh"
#include "hls/schedule_ir.hh"

namespace copernicus {

namespace {

using U128 = unsigned __int128;

constexpr std::uint64_t u64Max =
    std::numeric_limits<std::uint64_t>::max();

std::string
u128ToString(U128 v)
{
    if (v == 0)
        return "0";
    std::string out;
    while (v > 0) {
        out.insert(out.begin(), static_cast<char>('0' + int(v % 10)));
        v /= 10;
    }
    return out;
}

U128
ceilDiv128(U128 a, U128 b)
{
    return b == 0 ? 0 : (a + b - 1) / b;
}

/**
 * TileFeatures with every knob pinned to its maximum over @p envelope
 * (or all-zero for the empty-tile fixed-overhead bound). The model's
 * own closed-form fold (hls/schedule_ir.hh) resolves ScheduleFeature
 * against this instead of a real tile.
 */
struct EnvelopeFeatures
{
    U128 tileSize = 0;
    U128 entries = 0;
    U128 overflowEntries = 0;
    U128 nonEmptyGroups = 0;
    U128 groupHeaders = 0;
    U128 longestGroup = 0;
    U128 maskWords = 0;

    U128
    value(ScheduleFeature feature) const
    {
        switch (feature) {
          case ScheduleFeature::One: return 1;
          case ScheduleFeature::TileSize: return tileSize;
          case ScheduleFeature::Log2TileSize:
            return log2Ceil(static_cast<Index>(
                std::min<U128>(tileSize, u64Max)));
          case ScheduleFeature::Entries: return entries;
          case ScheduleFeature::EntriesAtLeastOne:
            return std::max<U128>(entries, 1);
          case ScheduleFeature::OverflowEntries: return overflowEntries;
          case ScheduleFeature::NonEmptyGroups: return nonEmptyGroups;
          case ScheduleFeature::GroupHeaders: return groupHeaders;
          case ScheduleFeature::LongestGroup: return longestGroup;
          case ScheduleFeature::MaskWords: return maskWords;
        }
        return 0;
    }
};

EnvelopeFeatures
fullTileFeatures(Index p)
{
    EnvelopeFeatures f;
    const U128 pp = U128(p) * U128(p);
    f.tileSize = p;
    f.entries = pp;
    f.overflowEntries = pp;
    f.nonEmptyGroups = p;
    // Diagonal-family headers reach 2p-1; round up to 2p.
    f.groupHeaders = U128(2) * p;
    f.longestGroup = p;
    // The real packed-mask word count is ceil(p^2/32); charging the
    // full p^2 keeps the bound safely above any packing change.
    f.maskWords = pp;
    return f;
}

/** Fixed per-tile overhead: a tile with no stored entries at all. */
EnvelopeFeatures
emptyTileFeatures(Index p)
{
    EnvelopeFeatures f;
    f.tileSize = p;
    return f;
}

} // namespace

void
checkAccountingRanges(const LintOptions &options,
                      const AccountingEnvelope &envelope,
                      LintReport &report)
{
    // COP060: the accounting typedefs themselves. Everything below
    // proves "the uint64 fold cannot wrap"; that proof is vacuous if
    // an accounting type is narrower than 64 bits to begin with.
    static_assert(std::is_unsigned_v<Cycles> && std::is_unsigned_v<Bytes>,
                  "accounting types must be unsigned");
    if (sizeof(Cycles) < 8)
        report.error("COP060", "overflow", "",
                     "Cycles is narrower than 64 bits; the range proof "
                     "assumes uint64 accounting");
    if (sizeof(Bytes) < 8)
        report.error("COP060", "overflow", "",
                     "Bytes is narrower than 64 bits; the range proof "
                     "assumes uint64 accounting");

    const Index p = envelope.maxPartition;
    const EnvelopeFeatures full = fullTileFeatures(p);
    const EnvelopeFeatures empty = emptyTileFeatures(p);
    // The aggregate deliberately over-counts: it charges the full
    // worst-case tile cost to every tile that could hold the envelope's
    // non-zeros, plus the fixed per-tile overhead to one (near-empty)
    // tile per non-zero — an adversarially partitioned workload.
    const U128 fullTiles = std::max<U128>(
        ceilDiv128(envelope.maxWorkloadNnz, U128(p) * U128(p)), 1);
    const U128 emptyTiles = envelope.maxWorkloadNnz;

    for (FormatKind kind : admittedFormats(options.params)) {
        const ScheduleSpec &spec = scheduleSpec(kind);
        const std::string name(formatName(kind));

        const U128 perTile =
            closedFormCycles<U128>(spec, options.hls, full);
        const U128 perEmpty =
            closedFormCycles<U128>(spec, options.hls, empty);
        // The segment the diagnostics name: the costliest one, the
        // last of equals.
        std::string dominating;
        U128 best = 0;
        for (const SegmentSpec &segment : spec.segments) {
            const U128 cycles =
                segmentClosedFormCycles<U128>(segment, options.hls, full);
            if (cycles >= best) {
                best = cycles;
                dominating = segment.name;
            }
        }
        if (perTile > u64Max) {
            LintDiagnostic d;
            d.id = "COP061";
            d.pass = "overflow";
            d.format = name;
            d.segment = dominating;
            d.message =
                "closed-form cycles overflow uint64 on one p=" +
                std::to_string(p) + " tile: 128-bit fold gives " +
                u128ToString(perTile);
            d.fixHint = "the folding is super-linear in a tile "
                        "feature; re-derive the segment's trip count";
            report.add(std::move(d));
            continue;
        }
        const U128 aggregate =
            perTile * fullTiles + perEmpty * emptyTiles;
        if (aggregate > u64Max) {
            LintDiagnostic d;
            d.id = "COP061";
            d.pass = "overflow";
            d.format = name;
            d.segment = dominating;
            d.message =
                "aggregate cycle accounting overflows uint64 within "
                "the " +
                std::to_string(envelope.maxWorkloadNnz) +
                "-nnz envelope: 128-bit total " +
                u128ToString(aggregate);
            report.add(std::move(d));
        } else if (aggregate > u64Max / 8) {
            LintDiagnostic d;
            d.severity = LintSeverity::Warning;
            d.id = "COP061";
            d.pass = "overflow";
            d.format = name;
            d.segment = dominating;
            d.message = "aggregate cycle accounting has less than 8x "
                        "uint64 headroom at the envelope (128-bit "
                        "total " +
                        u128ToString(aggregate) + ")";
            report.add(std::move(d));
        }

        // Growth probe far beyond the envelope: a fold that is linear
        // in its features stays far below uint64 even at p = 2^20; one
        // that multiplies two large features blows past it and gets
        // flagged before anyone raises the envelope into the wrap.
        const Index probeP = Index(1) << 20;
        const U128 probe = closedFormCycles<U128>(
            spec, options.hls, fullTileFeatures(probeP));
        if (perTile <= u64Max && probe > u64Max)
            report.warning("COP061", "overflow", name,
                           "cycle folding grows super-linearly: the "
                           "p=2^20 growth probe overflows uint64 "
                           "(128-bit fold " +
                               u128ToString(probe) + ")");

        // COP062: byte accounting. A tile's worst-case bytes are the
        // buffer model's Section 2 allocation, which no encoding
        // exceeds; hold it to a generous linear bound (64 bytes per
        // matrix position) so a quadratic-in-nnz regression in the
        // model is caught at the envelope.
        const Bytes worst = totalBufferBits(kind, p, options.params) / 8;
        const U128 byteBound = U128(64) * U128(p) * U128(p);
        if (U128(worst) > byteBound) {
            report.error(
                "COP062", "overflow", name,
                "worst-case tile bytes " + std::to_string(worst) +
                    " exceed the linear envelope bound " +
                    u128ToString(byteBound) +
                    " (64 bytes per matrix position)");
        } else {
            const U128 byteAggregate = U128(worst) * fullTiles;
            if (byteAggregate > u64Max)
                report.error("COP062", "overflow", name,
                             "aggregate byte accounting overflows "
                             "uint64 within the envelope: 128-bit "
                             "total " +
                                 u128ToString(byteAggregate));
            else if (byteAggregate > u64Max / 8)
                report.warning("COP062", "overflow", name,
                               "aggregate byte accounting has less "
                               "than 8x uint64 headroom at the "
                               "envelope (128-bit total " +
                                   u128ToString(byteAggregate) + ")");
        }
    }
}

void
scanForNarrowingCasts(const std::string &path,
                      const std::string &contents, LintReport &report)
{
    // The accounting models must compute natively wide: squeezing a
    // Cycles/Bytes intermediate through a 32-bit type silently undoes
    // the range proof above. Textual, deliberately simple: any cast to
    // a 32-bit-or-narrower arithmetic type in these files is flagged
    // unless the line carries a `lint: widening-ok` waiver.
    static const char *const narrowing[] = {
        "static_cast<Index>(",
        "static_cast<int>(",
        "static_cast<unsigned>(",
        "static_cast<std::uint32_t>(",
        "static_cast<uint32_t>(",
        "static_cast<std::int32_t>(",
        "static_cast<int32_t>(",
    };
    const std::vector<std::string> lines = splitLines(contents);
    for (std::size_t i = 0; i < lines.size(); ++i) {
        const std::string &line = lines[i];
        if (line.find("lint: widening-ok") != std::string::npos)
            continue;
        for (const char *pattern : narrowing) {
            const std::string::size_type at = line.find(pattern);
            if (at == std::string::npos)
                continue;
            LintDiagnostic d;
            d.id = "COP063";
            d.pass = "overflow";
            d.file = path;
            d.line = static_cast<int>(i + 1);
            d.message =
                std::string("narrowing cast in accounting code: ") +
                pattern + "...)";
            d.fixHint = "compute in Cycles/Bytes (uint64) end to end, "
                        "or waive with `// lint: widening-ok` if the "
                        "value is provably small";
            report.add(std::move(d));
            break;
        }
    }
}

void
runOverflowPass(const LintOptions &options, LintReport &report)
{
    checkAccountingRanges(options, AccountingEnvelope(), report);

    const std::string root = lintSourceRoot(options);
    if (root.empty())
        return;
    // The accounting hot files: everything that folds cycles or sums
    // bytes on the lint-provable paths.
    static const char *const scanSet[] = {
        "src/formats/schedule_spec.cc", "src/hls/schedule_ir.hh",
        "src/hls/schedule_ir.cc",       "src/hls/decompressor.cc",
        "src/compress/second_stage.cc", "src/fpga/buffer_model.cc",
    };
    for (const char *relative : scanSet) {
        const std::string path = root + "/" + relative;
        std::string contents;
        if (!readTextFile(path, contents))
            continue; // no checkout at runtime: skip silently
        scanForNarrowingCasts(relative, contents, report);
    }
}

} // namespace copernicus
