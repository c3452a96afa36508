#include "analysis/schedule_check.hh"

#include <algorithm>
#include <utility>

#include "common/math.hh"
#include "common/rng.hh"
#include "formats/validate.hh"
#include "hls/decompressor.hh"
#include "hls/schedule_ir.hh"
#include "hlsc/decoder_bodies.hh"
#include "hlsc/schedule.hh"
#include "matrix/partitioner.hh"
#include "workloads/generators.hh"

namespace copernicus {

namespace {

/** The hlsc resource model matching the analytic platform knobs. */
HlscConstraints
constraintsFrom(const HlsConfig &config)
{
    HlscConstraints cons;
    cons.bramLoadLatency = config.bramReadLatency;
    cons.hashProbeLatency = config.hashCycles;
    cons.bramPortsPerBank = config.bramPorts;
    return cons;
}

/**
 * Longest dependency chain of Compare ops through @p body — the
 * comparator-tree depth. A balanced tree over p lanes has log2(p)
 * levels; a compare chain longer than that is an unbalanced tree.
 */
Cycles
compareChainDepth(const LoopBody &body)
{
    std::vector<Cycles> chain(body.ops.size(), 0);
    Cycles deepest = 0;
    for (std::size_t i = 0; i < body.ops.size(); ++i) {
        Cycles best = 0;
        for (std::size_t dep : body.ops[i].deps)
            best = std::max(best, chain[dep]);
        chain[i] = best + (body.ops[i].kind == OpKind::Compare ? 1 : 0);
        deepest = std::max(deepest, chain[i]);
    }
    return deepest;
}

} // namespace

LoopBody
decoderBodyFor(FormatKind kind, const FormatParams &params,
               Index partitionSize)
{
    switch (kind) {
      case FormatKind::CSR: return csrInnerLoopBody();
      case FormatKind::JDS: // same entry loop, no per-row offsets
        return csrInnerLoopBody();
      case FormatKind::BCSR: return bcsrBlockBody(params.bcsrBlock);
      case FormatKind::CSC: return cscScanLoopBody();
      case FormatKind::COO: return cooLoopBody();
      case FormatKind::DOK: return dokLoopBody();
      case FormatKind::LIL: return lilMergeBody(partitionSize);
      case FormatKind::ELL:
        return ellRowBody(std::min(params.ellMinWidth, partitionSize));
      case FormatKind::SELL: // the per-slice sweep is the same body
      case FormatKind::SELLCS:
        return ellRowBody(std::min(params.ellMinWidth, partitionSize));
      case FormatKind::ELLCOO:
        return ellRowBody(std::min(params.ellCooWidth, partitionSize));
      case FormatKind::DIA: return diaRowScanBody();
      case FormatKind::Dense:
      case FormatKind::BITMAP:
        break;
    }
    panic("no decoder body for format " +
          std::string(formatName(kind)));
}

void
checkSpecStructure(const ScheduleSpec &spec, const HlsConfig &config,
                   LintReport &report)
{
    const std::string name(formatName(spec.format));
    if (spec.format != FormatKind::Dense && spec.segments.empty())
        report.error("COP001", "spec", name,
                     "decode schedule declares no segments");
    for (const SegmentSpec &segment : spec.segments) {
        if (segment.name == nullptr || segment.name[0] == '\0')
            report.error("COP002", "spec", name,
                         "segment without a name");
        if (segment.bankAccessesPerII == 0) {
            LintDiagnostic d;
            d.id = "COP003";
            d.pass = "spec";
            d.format = name;
            d.segment = segment.name;
            d.message = std::string("segment '") + segment.name +
                        "' declares zero bank accesses per II";
            report.add(std::move(d));
            continue;
        }
        // > bramPorts accesses per II against one dual-port bank can
        // never be scheduled at the declared II.
        if (segment.bankAccessesPerII > config.bramPorts) {
            LintDiagnostic d;
            d.id = "COP004";
            d.pass = "spec";
            d.format = name;
            d.segment = segment.name;
            d.message =
                std::string("BRAM port over-subscription: segment '") +
                segment.name + "' needs " +
                std::to_string(segment.bankAccessesPerII) +
                " accesses per II on one bank, but banks expose " +
                std::to_string(config.bramPorts) + " ports";
            d.fixHint = "split the access across banks or raise the "
                        "segment's initiation interval";
            report.add(std::move(d));
        }
    }
}

void
checkDecoderBody(const ScheduleSpec &spec, const LoopBody &body,
                 Index partitionSize, const HlsConfig &config,
                 LintReport &report)
{
    const std::string name(formatName(spec.format));
    const HlscConstraints cons = constraintsFrom(config);
    const BodySchedule schedule = scheduleBody(body, cons);

    const TileFeatures none; // claims never use tile-dependent knobs
    const Cycles claimedIi = knobCycles(spec.claims.ii, config, none);
    if (schedule.ii != claimedIi) {
        // Classify: if unlimited ports restore the claimed II the
        // violation is resource pressure; otherwise it is a recurrence
        // (loop-carried dependence) no amount of ports can hide.
        HlscConstraints unlimited = cons;
        unlimited.bramPortsPerBank = 1u << 20;
        const Cycles relaxed = scheduleBody(body, unlimited).ii;
        const char *cause =
            relaxed <= claimedIi
                ? "BRAM port over-subscription"
                : "a loop-carried dependence";
        report.error("COP010", "body", name,
                     "II violation from " + std::string(cause) +
                         ": body '" + body.name + "' schedules at II " +
                         std::to_string(schedule.ii) +
                         ", model charges II " +
                         std::to_string(claimedIi));
    }

    if (spec.claims.checkDepth) {
        const Cycles claimedDepth =
            knobCycles(spec.claims.depth, config, none);
        if (schedule.depth != claimedDepth)
            report.error("COP011", "body", name,
                         "pipeline depth mismatch: body '" + body.name +
                             "' schedules at depth " +
                             std::to_string(schedule.depth) +
                             ", model charges " +
                             std::to_string(claimedDepth));
    }

    if (spec.claims.balancedTreeOverLanes) {
        const Cycles levels = compareChainDepth(body);
        const Cycles balanced = log2Ceil(partitionSize);
        if (levels > balanced)
            report.error("COP012", "body", name,
                         "unbalanced comparator tree: compare chain of " +
                             std::to_string(levels) + " levels over " +
                             std::to_string(partitionSize) +
                             " lanes; a balanced tree needs " +
                             std::to_string(balanced));
        else if (levels < balanced)
            report.warning("COP013", "body", name,
                           "comparator tree shallower than log2(p) — "
                           "body covers " +
                               std::to_string(levels) +
                               " levels for p = " +
                               std::to_string(partitionSize));
    }
}

std::vector<FormatKind>
admittedFormats(const FormatParams &params)
{
    std::vector<FormatKind> kinds;
    for (FormatKind kind : allFormats())
        if (formatParamsViolation(params, kind).empty())
            kinds.push_back(kind);
    return kinds;
}

std::string
partitionContractViolation(const FormatParams &params, FormatKind kind,
                           Index p)
{
    if (p == 0)
        return "partition size must be positive";
    // A zero hyperparameter is COP021's finding, not a size mismatch.
    const auto divides = [p](const char *what, Index divisor) {
        if (divisor == 0 || p % divisor == 0)
            return std::string();
        return std::string(what) + " " + std::to_string(divisor) +
               " does not divide partition size " + std::to_string(p);
    };
    switch (kind) {
      case FormatKind::BCSR:
        return divides("block size", params.bcsrBlock);
      case FormatKind::SELL:
        return divides("slice height", params.sellSlice);
      case FormatKind::SELLCS:
        return divides("sorting window", params.sellCsWindow);
      default:
        return {};
    }
}

void
checkContracts(const FormatParams &params, const HlsConfig &config,
               const std::vector<Index> &partitionSizes,
               LintReport &report)
{
    if (config.bramPorts == 0)
        report.error("COP020", "contract", "",
                     "bramPorts must be positive");
    if (config.loopDepth == 0)
        report.error("COP020", "contract", "",
                     "loopDepth must be positive (pipelines have at "
                     "least one stage)");
    if (config.bramReadLatency == 0)
        report.error("COP020", "contract", "",
                     "bramReadLatency must be positive (block RAM is "
                     "registered)");
    // COP021 is the codecs' own check, reported once per format.
    for (FormatKind kind : allFormats()) {
        const std::string violation = formatParamsViolation(params, kind);
        if (!violation.empty())
            report.error("COP021", "contract",
                         std::string(formatName(kind)), violation);
    }
    const std::vector<FormatKind> admitted = admittedFormats(params);

    for (Index p : partitionSizes) {
        if (p == 0) {
            report.error("COP022", "contract", "",
                         "partition size must be positive");
            continue;
        }
        for (FormatKind kind : admitted) {
            const std::string violation =
                partitionContractViolation(params, kind, p);
            if (!violation.empty())
                report.error("COP022", "contract",
                             std::string(formatName(kind)), violation);
        }
        if (params.ellMinWidth > p)
            report.warning("COP023", "contract", "ELL",
                           "minimum width " +
                               std::to_string(params.ellMinWidth) +
                               " exceeds partition size " +
                               std::to_string(p) +
                               " (codec clamps it)");
        if (params.ellCooWidth > p)
            report.warning("COP023", "contract", "ELLCOO",
                           "ELL-part width " +
                               std::to_string(params.ellCooWidth) +
                               " exceeds partition size " +
                               std::to_string(p) +
                               " (codec clamps it)");
        if (!isPow2(p))
            report.warning("COP024", "contract", "",
                           "partition size " + std::to_string(p) +
                               " is not a power of two; the dot "
                               "engine's adder tree rounds up");
    }
}

void
checkTileGrammar(const LintOptions &, const Tile &,
                 const EncodedTile &encoded, LintReport &report)
{
    const GrammarReport check = validateEncodedTile(encoded);
    for (const GrammarViolation &violation : check.violations)
        report.error("COP030", "grammar",
                     std::string(formatName(encoded.kind())),
                     violation.invariant + ": " + violation.detail);
}

void
checkTileOracle(const LintOptions &options, const Tile &tile,
                const EncodedTile &encoded, LintReport &report)
{
    const DecompressCost walked =
        verifyDecompression(encoded, tile, options.hls);
    // verifyDecompression() extracts the same features but does not
    // return them; extracting them again costs next to nothing beside
    // the encode.
    const Cycles closed =
        closedFormCycles(scheduleSpec(encoded.kind()), options.hls,
                         extractScheduleFeatures(encoded, tile));
    if (closed != walked.decompressCycles)
        report.error("COP040", "oracle",
                     std::string(formatName(encoded.kind())),
                     "closed-form bound " + std::to_string(closed) +
                         " != dynamic walker " +
                         std::to_string(walked.decompressCycles) +
                         " on a p=" + std::to_string(tile.size()) +
                         " tile with " + std::to_string(tile.nnz()) +
                         " non-zeros");
}

void
forEachLintTile(
    const FormatParams &params, const std::vector<Index> &partitionSizes,
    const std::function<void(const FormatCodec &, const Tile &)> &fn)
{
    // No registry exists for a rejected hyperparameter; the contract
    // pass reports it (COP021).
    if (admittedFormats(params).size() != allFormats().size())
        return;
    const FormatRegistry registry(params);
    // The synthetic workload set: random, band, diagonal and stencil
    // structure exercise every format's encoder shapes (dense rows,
    // empty rows, diagonals, uneven slices).
    for (Index p : partitionSizes) {
        // The contract pass reports every pair skipped here (COP022).
        std::vector<const FormatCodec *> codecs;
        for (FormatKind kind : allFormats())
            if (partitionContractViolation(params, kind, p).empty())
                codecs.push_back(&registry.codec(kind));
        if (codecs.empty())
            continue;
        const auto visit = [&](const Tile &tile) {
            for (const FormatCodec *codec : codecs)
                fn(*codec, tile);
        };
        const Index n = p * 4;
        // About 51 expected non-zeros per random tile at every size:
        // density 0.05 up to p = 32, then 0.05 * 32^2 / p^2, so a large
        // p does not pay for O(p^2) non-zeros per tile.
        const double side = static_cast<double>(p);
        const double density =
            p <= 32 ? 0.05 : 0.05 * (32.0 * 32.0) / (side * side);
        Rng rng(2024);
        std::vector<TripletMatrix> workloads;
        workloads.push_back(randomMatrix(n, density, rng));
        workloads.push_back(bandMatrix(n, 3, rng));
        workloads.push_back(diagonalMatrix(n, rng));
        workloads.push_back(stencil2d(p, n / p > 0 ? n / p : 1));
        for (const TripletMatrix &matrix : workloads) {
            const Partitioning parts = partition(matrix, p);
            std::size_t checked = 0;
            for (const Tile &tile : parts.tiles) {
                if (++checked > 12)
                    break; // bounded per workload; shapes repeat
                visit(tile);
            }
        }
        // The all-zero tile exercises every guard path.
        visit(Tile(p));
    }
}

} // namespace copernicus
