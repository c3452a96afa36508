/**
 * @file
 * Tests for the static schedule analyzer (analysis/schedule_check):
 * the clean tree lints clean, and each seeded hazard class — BRAM port
 * over-subscription, loop-carried II violations, unbalanced comparator
 * trees, hyperparameter contract breaks, malformed specs — produces an
 * error diagnostic naming the offending format.
 */

#include <algorithm>
#include <gtest/gtest.h>

#include "analysis/pass_manager.hh"
#include "analysis/schedule_check.hh"
#include "hlsc/decoder_bodies.hh"

namespace copernicus {
namespace {

bool
hasError(const LintReport &report, const std::string &pass,
         const std::string &needle)
{
    return std::any_of(
        report.diagnostics.begin(), report.diagnostics.end(),
        [&](const LintDiagnostic &d) {
            return d.severity == LintSeverity::Error && d.pass == pass &&
                   d.message.find(needle) != std::string::npos;
        });
}

TEST(LintTest, CleanTreeLintsClean)
{
    const LintReport report = runLint();
    EXPECT_TRUE(report.ok()) << report.toString();
    EXPECT_EQ(report.errorCount(), 0u) << report.toString();
    EXPECT_EQ(report.warningCount(), 0u) << report.toString();
}

TEST(LintTest, ZeroPartitionSizeIsAContractErrorNotACrash)
{
    // p = 0 has no decoder body and no tiles: every pass must skip it
    // and leave the finding (COP022) to the contract pass.
    LintOptions options;
    options.partitionSizes = {0};
    const LintReport report = runLint(options);
    EXPECT_TRUE(hasError(report, "contract",
                         "partition size must be positive"))
        << report.toString();
    EXPECT_EQ(report.errorCount(), 1u) << report.toString();
}

TEST(LintTest, IndivisiblePartitionSizeKeepsEveryDiagnostic)
{
    // p = 12 suits every codec but SELL-C-sigma (window 8): the tile
    // sweeps skip that one pair, and the report keeps the contract
    // findings instead of dying in the SELL-C-sigma encoder.
    LintOptions options;
    options.partitionSizes = {12};
    LintReport report;
    ASSERT_NO_THROW(report = runLint(options));
    EXPECT_TRUE(hasError(report, "contract",
                         "sorting window 8 does not divide partition "
                         "size 12"))
        << report.toString();
    EXPECT_EQ(report.errorCount(), 1u) << report.toString();
    EXPECT_TRUE(std::any_of(report.diagnostics.begin(),
                            report.diagnostics.end(),
                            [](const LintDiagnostic &d) {
                                return d.id == "COP024";
                            }))
        << report.toString();
}

TEST(LintTest, TileSweepsVisitExactlyTheAdmittedPairs)
{
    const FormatParams params;
    std::vector<std::pair<FormatKind, Index>> visited;
    forEachLintTile(params, {0, 12, 16},
                    [&](const FormatCodec &codec, const Tile &tile) {
                        visited.emplace_back(codec.kind(), tile.size());
                    });
    for (FormatKind kind : allFormats()) {
        for (Index p : {Index(0), Index(12), Index(16)}) {
            const bool seen =
                std::find(visited.begin(), visited.end(),
                          std::make_pair(kind, p)) != visited.end();
            EXPECT_EQ(seen,
                      partitionContractViolation(params, kind, p).empty())
                << formatName(kind) << " p=" << p;
        }
    }
    EXPECT_FALSE(
        partitionContractViolation(params, FormatKind::SELLCS, 12).empty());
    EXPECT_TRUE(
        partitionContractViolation(params, FormatKind::SELL, 12).empty());
}

TEST(LintTest, TileSweepStaysSparseAtLargePartitions)
{
    // The random workload keeps about 51 expected non-zeros per tile at
    // every size. At p = 1024 a fixed density of 0.05 put about 52K in
    // each random tile; the band, diagonal and 5-point-stencil tiles
    // hold at most 5p.
    const Index p = 1024;
    std::size_t visits = 0;
    std::size_t densest = 0;
    forEachLintTile(FormatParams(), {p},
                    [&](const FormatCodec &, const Tile &tile) {
                        ++visits;
                        densest = std::max<std::size_t>(densest,
                                                        tile.nnz());
                    });
    EXPECT_GT(visits, 0u);
    EXPECT_LE(densest, 5u * p);
}

/** The formats the report's COP021 errors name, in report order. */
std::vector<std::string>
rejectedFormats(const LintReport &report)
{
    std::vector<std::string> formats;
    for (const LintDiagnostic &d : report.diagnostics)
        if (d.id == "COP021" && d.severity == LintSeverity::Error)
            formats.push_back(d.format);
    return formats;
}

TEST(LintTest, RejectedHyperparameterIsAContractErrorNotACrash)
{
    // A zero hyperparameter leaves its formats without a codec: every
    // pass skips them, the tile sweeps build no registry, and the
    // contract pass reports each rejected format once (COP021) with
    // the codec's own message.
    struct Case
    {
        const char *name;
        Index FormatParams::*field;
        std::vector<std::string> rejected;
    };
    const std::vector<Case> cases = {
        {"bcsrBlock", &FormatParams::bcsrBlock, {"BCSR"}},
        {"ellMinWidth", &FormatParams::ellMinWidth, {"ELL"}},
        {"sellSlice", &FormatParams::sellSlice, {"SELL", "SELLCS"}},
        {"ellCooWidth", &FormatParams::ellCooWidth, {"ELLCOO"}},
        {"sellCsWindow", &FormatParams::sellCsWindow, {"SELLCS"}},
    };
    const PassManager &passes = PassManager::standard();
    for (const Case &c : cases) {
        SCOPED_TRACE(c.name);
        LintOptions options;
        options.params.*c.field = 0;

        LintReport report;
        ASSERT_NO_THROW(report = runLint(options));
        EXPECT_EQ(rejectedFormats(report), c.rejected) << report.toString();
        // Over the admitted formats every other pass is clean.
        EXPECT_EQ(report.errorCount(), c.rejected.size())
            << report.toString();
        EXPECT_EQ(report.warningCount(), 0u) << report.toString();
        for (const LintDiagnostic &d : report.diagnostics)
            EXPECT_EQ(d.message,
                      formatParamsViolation(options.params,
                                            parseFormatKind(d.format)));

        const LintReport contract = passes.run(options, {"contract"});
        EXPECT_EQ(rejectedFormats(contract), c.rejected)
            << contract.toString();
        for (const PassInfo &pass : passes.passes())
            EXPECT_NO_THROW(passes.run(options, {pass.name}))
                << pass.name;

        std::size_t visited = 0;
        forEachLintTile(options.params, options.partitionSizes,
                        [&](const FormatCodec &, const Tile &) {
                            ++visited;
                        });
        EXPECT_EQ(visited, 0u);
    }
}

TEST(LintTest, DiagnosticFormatting)
{
    LintReport report;
    report.error("body", "CSR", "something broke");
    report.warning("contract", "ELL", "looks odd");
    EXPECT_EQ(report.diagnostics[0].toString(),
              "error[body] CSR: something broke");
    EXPECT_EQ(report.errorCount(), 1u);
    EXPECT_EQ(report.warningCount(), 1u);
    EXPECT_FALSE(report.ok());
}

TEST(LintTest, SpecPassFlagsPortOverSubscription)
{
    // A segment demanding 3 accesses per II on one dual-port bank.
    ScheduleSpec spec = scheduleSpec(FormatKind::CSR);
    spec.segments[1].bankAccessesPerII = 3;
    LintReport report;
    checkSpecStructure(spec, HlsConfig(), report);
    EXPECT_TRUE(hasError(report, "spec", "over-subscription"))
        << report.toString();
}

TEST(LintTest, SpecPassFlagsMalformedSegments)
{
    ScheduleSpec spec = scheduleSpec(FormatKind::COO);
    spec.segments[0].name = "";
    spec.segments[0].bankAccessesPerII = 0;
    LintReport report;
    checkSpecStructure(spec, HlsConfig(), report);
    EXPECT_GE(report.errorCount(), 2u) << report.toString();
}

TEST(LintTest, BodyPassClassifiesCarriedDependenceIiViolation)
{
    // Seed a loop-carried dependence of 2 cycles at distance 1 into
    // COO's body: the achievable II becomes 2 against a claimed II of
    // 1, and no amount of BRAM ports can hide it.
    LoopBody body = cooLoopBody();
    body.carried.push_back({2, 1});
    LintReport report;
    checkDecoderBody(scheduleSpec(FormatKind::COO), body, 8,
                     HlsConfig(), report);
    EXPECT_TRUE(hasError(report, "body", "loop-carried dependence"))
        << report.toString();
}

TEST(LintTest, BodyPassClassifiesPortOverSubscriptionIiViolation)
{
    // Three loads on one bank of a dual-port BRAM: resource MII 2.
    // Rescheduling with unlimited ports recovers II 1, so the analyzer
    // must blame the port budget, not a dependence.
    LoopBody body = cooLoopBody();
    body.add(OpKind::BramLoad, {}, 0);
    body.add(OpKind::BramLoad, {}, 0);
    body.add(OpKind::BramLoad, {}, 0);
    LintReport report;
    checkDecoderBody(scheduleSpec(FormatKind::COO), body, 8,
                     HlsConfig(), report);
    EXPECT_TRUE(hasError(report, "body", "over-subscription"))
        << report.toString();
    EXPECT_FALSE(hasError(report, "body", "loop-carried dependence"))
        << report.toString();
}

TEST(LintTest, BodyPassFlagsUnbalancedComparatorTree)
{
    // LIL claims a balanced log2(p) comparator tree. Chain four extra
    // compares onto the body's last compare: the critical compare
    // chain now exceeds log2(16) = 4.
    LoopBody body = lilMergeBody(16);
    std::size_t last = 0;
    for (std::size_t i = 0; i < body.ops.size(); ++i)
        if (body.ops[i].kind == OpKind::Compare)
            last = i;
    for (int i = 0; i < 4; ++i)
        last = body.add(OpKind::Compare, {last});
    LintReport report;
    checkDecoderBody(scheduleSpec(FormatKind::LIL), body, 16,
                     HlsConfig(), report);
    EXPECT_TRUE(hasError(report, "body", "unbalanced"))
        << report.toString();
}

TEST(LintTest, BodyPassAcceptsTheRealBodies)
{
    const FormatParams params;
    LintReport report;
    for (FormatKind kind : allFormats()) {
        const ScheduleSpec &spec = scheduleSpec(kind);
        if (!spec.hasInnerBody)
            continue;
        checkDecoderBody(spec, decoderBodyFor(kind, params, 16), 16,
                         HlsConfig(), report);
    }
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(LintTest, ContractPassFlagsIndivisibleBlockAndSlice)
{
    FormatParams params;
    params.bcsrBlock = 3;
    LintReport report;
    checkContracts(params, HlsConfig(), {8}, report);
    EXPECT_TRUE(hasError(report, "contract", "divide"))
        << report.toString();
}

TEST(LintTest, ContractPassFlagsWindowSliceMismatch)
{
    FormatParams params;
    params.sellSlice = 4;
    params.sellCsWindow = 6; // not a multiple of the slice height
    LintReport report;
    checkContracts(params, HlsConfig(), {8}, report);
    EXPECT_FALSE(report.ok()) << report.toString();
    // The contract pass names the codec's own check (COP021).
    EXPECT_NE(report.toString().find(
                  "COP021 SELLCS: SELL-C-sigma window must be a multiple "
                  "of the slice height"),
              std::string::npos)
        << report.toString();
}

TEST(LintTest, ContractPassFlagsBadKnobs)
{
    HlsConfig cfg;
    cfg.bramPorts = 0;
    LintReport report;
    checkContracts(FormatParams(), cfg, {8}, report);
    EXPECT_TRUE(hasError(report, "contract", "bramPorts"))
        << report.toString();
}

TEST(LintTest, ContractPassWarnsOnNonPowerOfTwoPartition)
{
    LintReport report;
    checkContracts(FormatParams(), HlsConfig(), {12}, report);
    EXPECT_GE(report.warningCount(), 1u) << report.toString();
}

TEST(LintTest, TilePassAcceptsRealEncodings)
{
    const FormatRegistry registry;
    TileBuilder builder(8);
    builder.set(0, 0, 1);
    builder.set(2, 5, 2);
    builder.set(7, 7, 3);
    const Tile tile = builder.build();
    const LintOptions options;
    LintReport report;
    for (FormatKind kind : allFormats()) {
        const auto encoded = registry.codec(kind).encode(tile);
        checkTileGrammar(options, tile, *encoded, report);
        checkTileOracle(options, tile, *encoded, report);
    }
    EXPECT_TRUE(report.ok()) << report.toString();
}

} // namespace
} // namespace copernicus
