/**
 * @file
 * Static schedule analyzer: the original four pass families.
 *
 * All static — nothing here runs the pipeline. Specs are read through
 * scheduleSpec(); only the tile sweeps build a FormatRegistry. Every
 * pass checks the formats whose codec admits the hyperparameters
 * (admittedFormats()) and leaves the rest to COP021:
 *
 *  - Spec structure (COP001-004): every format's ScheduleSpec is
 *    well-formed and none of its segments over-subscribes a dual-port
 *    BRAM bank (> bramPorts accesses per initiation interval on one
 *    bank).
 *  - Decoder-body cross-check (COP010-013): the depth/II each spec
 *    claims for its inner loop must equal what the hlsc list scheduler
 *    derives from the Listing 1-7 loop bodies; a violated II is
 *    classified as port over-subscription (rescheduling with unlimited
 *    ports fixes it) or a loop-carried dependence (it does not). LIL's
 *    comparator tree is additionally checked for balance: its
 *    compare-chain depth must be log2(p).
 *  - Contracts (COP020-024): platform-knob sanity, each codec's own
 *    hyperparameter check (formatParamsViolation(), COP021), and the
 *    requested partition sizes (BCSR block / SELL slice / SELL-C-sigma
 *    window divisibility, ELL width clamps).
 *  - Grammar + oracle (COP030, COP040) over synthetic workloads:
 *    every encoded tile must satisfy its format grammar
 *    (formats/validate), and the closed-form cycle bound from the
 *    schedule IR must equal the dynamic walker exactly (the
 *    model-vs-walker oracle). Both are per-tile checks fed by the
 *    pass manager's one forEachLintTile sweep, which encodes each
 *    (tile, format) pair once for them and the compress pass.
 *
 * The deeper passes live beside this file (overflow_pass, capacity_pass,
 * thread_safety_pass, protocol_pass, compress_pass, store_pass) and
 * everything is orchestrated by analysis/pass_manager. Passes are
 * chosen by name only: runLint() runs every registered pass, and
 * copernicus_lint's `--passes=a,b` runs a named subset.
 */

#ifndef COPERNICUS_ANALYSIS_SCHEDULE_CHECK_HH
#define COPERNICUS_ANALYSIS_SCHEDULE_CHECK_HH

#include <functional>
#include <string>
#include <vector>

#include "analysis/diagnostics.hh"
#include "analysis/protocol_surface.hh"
#include "formats/registry.hh"
#include "formats/schedule_spec.hh"
#include "hls/hls_config.hh"
#include "hlsc/ir.hh"
#include "matrix/tile.hh"

namespace copernicus {

/** What to lint and against which platform. */
struct LintOptions
{
    /** Partition sizes the contracts and oracle sweep. */
    std::vector<Index> partitionSizes = {8, 16, 32};

    /** Platform the schedules are checked against. */
    HlsConfig hls;

    /** Codec hyperparameters the formats are checked under. */
    FormatParams params;

    /**
     * Extra .cbm files to deep-inspect under COP110-112 — real sweep
     * artifacts a CI job wants linted alongside the synthetic ones.
     */
    std::vector<std::string> storeContainers;

    /**
     * Serve-protocol surface to conform-check (COP090-093); the pass
     * is skipped when null. The serve library provides
     * collectServeProtocolSurface() — analysis cannot depend on serve
     * (copernicus_core links analysis, and serve links core), so
     * callers inject the surface.
     */
    const ProtocolSurface *protocol = nullptr;

    /**
     * Root of the source tree for the source-scanning rules (COP063
     * narrowing casts, COP082 bare mutexes). "" means the compiled-in
     * checkout path; the scans skip silently when the directory does
     * not exist (a binary run away from its checkout).
     */
    std::string sourceRoot;
};

/**
 * The hlsc loop body modelling @p kind's pipelined inner loop (JDS
 * reuses CSR's entry body, the ELL family reuses the row sweep).
 * Only valid for formats whose spec has hasInnerBody set.
 */
LoopBody decoderBodyFor(FormatKind kind, const FormatParams &params,
                        Index partitionSize);

/** Pass 1: structural sanity + BRAM port budget of one spec. */
void checkSpecStructure(const ScheduleSpec &spec, const HlsConfig &config,
                        LintReport &report);

/**
 * Pass 2: schedule @p body with hlsc and compare against @p spec's
 * claims; II violations are classified as port over-subscription or
 * loop-carried dependence. @p partitionSize sizes the comparator-tree
 * balance check for specs that claim one.
 */
void checkDecoderBody(const ScheduleSpec &spec, const LoopBody &body,
                      Index partitionSize, const HlsConfig &config,
                      LintReport &report);

/**
 * The formats whose codec admits @p params (formatParamsViolation()
 * is empty), in allFormats() order: the formats every pass checks.
 * The contract pass reports the others (COP021).
 */
std::vector<FormatKind> admittedFormats(const FormatParams &params);

/**
 * Why @p kind's codec cannot encode tiles of edge @p p under
 * @p params (the contract pass's COP022 message: p is zero, or the
 * BCSR block, SELL slice height or SELL-C-sigma sorting window does
 * not divide it), or "" when it can. The one predicate behind COP022
 * and the tile sweeps' skips.
 */
std::string partitionContractViolation(const FormatParams &params,
                                       FormatKind kind, Index p);

/**
 * Pass 3: knob (COP020), hyperparameter (COP021) and partition-size
 * (COP022-024) contracts. COP022 covers admitted formats only: a
 * rejected one has COP021 alone.
 */
void checkContracts(const FormatParams &params, const HlsConfig &config,
                    const std::vector<Index> &partitionSizes,
                    LintReport &report);

/** Pass 4 (grammar, COP030): @p encoded satisfies its format grammar. */
void checkTileGrammar(const LintOptions &options, const Tile &tile,
                      const EncodedTile &encoded, LintReport &report);

/**
 * Pass 5 (oracle, COP040): the closed-form bound of @p encoded, the
 * encoding of @p tile, equals the dynamic walker's cycles on
 * options.hls. The walker also decodes it against @p tile.
 */
void checkTileOracle(const LintOptions &options, const Tile &tile,
                     const EncodedTile &encoded, LintReport &report);

/**
 * Invoke @p fn(codec, tile) for every tile of the synthetic lint
 * workload set (random, band, diagonal, stencil, plus the all-zero
 * tile) at each partition size, once per format the contract pass
 * admits at that size (partitionContractViolation() is empty) — the
 * one tile sweep PassManager::run feeds every selected tile check
 * from, so a size one codec rejects costs that codec's checks only,
 * not the run. The codecs come from one FormatRegistry(params); when
 * a format rejects @p params no registry can be built and nothing is
 * visited. Deterministic (fixed seed).
 */
void forEachLintTile(
    const FormatParams &params, const std::vector<Index> &partitionSizes,
    const std::function<void(const FormatCodec &, const Tile &)> &fn);

/**
 * Run every registered pass over the full registry (implemented in
 * analysis/pass_manager: this is PassManager::standard().run()).
 */
LintReport runLint(const LintOptions &options = LintOptions());

} // namespace copernicus

#endif // COPERNICUS_ANALYSIS_SCHEDULE_CHECK_HH
