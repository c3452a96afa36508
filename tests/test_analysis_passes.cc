/**
 * @file
 * Tests for the analyzer's pass framework: diagnostic formatting and
 * exit codes, the pass manager's selection semantics and shared tile
 * sweep, baseline parse/apply/staleness, the JSON and SARIF emitters,
 * and the deep passes (overflow, capacity, thread-safety, protocol,
 * compress) both clean-on-tree and firing on injected defects.
 */

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <map>
#include <gtest/gtest.h>
#include <sstream>

#include "analysis/baseline.hh"
#include "analysis/capacity_pass.hh"
#include "analysis/compress_pass.hh"
#include "analysis/emitters.hh"
#include "analysis/lint_driver.hh"
#include "analysis/overflow_pass.hh"
#include "analysis/pass_manager.hh"
#include "analysis/protocol_pass.hh"
#include "analysis/store_pass.hh"
#include "analysis/thread_safety_pass.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "serve/protocol_doc.hh"
#include "store/container.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

bool
hasId(const LintReport &report, const std::string &id)
{
    return std::any_of(report.diagnostics.begin(),
                       report.diagnostics.end(),
                       [&](const LintDiagnostic &d) {
                           return d.id == id;
                       });
}

// ---------------------------------------------------------------- //
// Diagnostics: formatting, fingerprints, exit codes.

TEST(DiagnosticsTest, IdBearingToString)
{
    LintReport report;
    report.error("COP004", "spec", "CSR", "too many ports");
    EXPECT_EQ(report.diagnostics[0].toString(),
              "error[spec] COP004 CSR: too many ports");

    LintDiagnostic d;
    d.severity = LintSeverity::Warning;
    d.id = "COP063";
    d.pass = "overflow";
    d.file = "src/fpga/buffer_model.cc";
    d.line = 42;
    d.message = "narrowing cast";
    EXPECT_EQ(d.toString(), "warning[overflow] COP063 "
                            "src/fpga/buffer_model.cc:42: "
                            "narrowing cast");
}

TEST(DiagnosticsTest, SegmentBearingToString)
{
    LintDiagnostic d;
    d.id = "COP070";
    d.pass = "capacity";
    d.format = "ELLCOO";
    d.segment = "ell sweep -> overflow loop";
    d.message = "over-subscribed";
    EXPECT_EQ(d.toString(),
              "error[capacity] COP070 ELLCOO(ell sweep -> overflow "
              "loop): over-subscribed");
}

TEST(DiagnosticsTest, FingerprintOmitsMessageAndLine)
{
    LintDiagnostic a;
    a.id = "COP063";
    a.pass = "overflow";
    a.file = "src/fpga/buffer_model.cc";
    a.line = 42;
    a.message = "one wording";
    LintDiagnostic b = a;
    b.line = 99;
    b.message = "another wording";
    EXPECT_EQ(a.fingerprint(), b.fingerprint());
    EXPECT_EQ(a.fingerprint(), "COP063 overflow buffer_model.cc -");
}

TEST(DiagnosticsTest, ExitCodeMapping)
{
    LintReport clean;
    EXPECT_EQ(lintExitCode(clean), 0);
    EXPECT_EQ(lintExitCode(clean, /*werror=*/true), 0);

    LintReport warns;
    warns.warning("contract", "ELL", "looks odd");
    EXPECT_EQ(lintExitCode(warns), 2);
    EXPECT_EQ(lintExitCode(warns, /*werror=*/true), 1);

    LintReport errors;
    errors.error("spec", "CSR", "broken");
    errors.warning("contract", "ELL", "looks odd");
    EXPECT_EQ(lintExitCode(errors), 1);
    EXPECT_EQ(lintExitCode(errors, /*werror=*/true), 1);
}

TEST(DiagnosticsTest, EveryRegisteredIdHasDescription)
{
    for (const PassInfo &pass : PassManager::standard().passes())
        for (const std::string &id : pass.ids)
            EXPECT_FALSE(lintRuleDescription(id).empty())
                << pass.name << " emits " << id
                << " with no rule description";

    // A retired id keeps a tombstone description and no pass lists it.
    for (const std::string retired : {"COP041", "COP050"}) {
        EXPECT_EQ(lintRuleDescription(retired).rfind("retired", 0), 0u)
            << retired << ": " << lintRuleDescription(retired);
        for (const PassInfo &pass : PassManager::standard().passes())
            EXPECT_EQ(std::count(pass.ids.begin(), pass.ids.end(),
                                 retired),
                      0)
                << pass.name << " lists retired " << retired;
    }
}

// ---------------------------------------------------------------- //
// Pass manager: listing, selection, unknown names.

TEST(PassManagerTest, StandardRegistryShape)
{
    const PassManager &manager = PassManager::standard();
    // The 11 passes in registration order, which is run order and the
    // order --list-passes prints.
    std::vector<std::string> names;
    for (const PassInfo &pass : manager.passes())
        names.push_back(pass.name);
    EXPECT_EQ(names, (std::vector<std::string>{
                         "spec", "body", "contract", "grammar", "oracle",
                         "overflow", "capacity", "thread-safety",
                         "protocol", "compress", "store"}));
    EXPECT_NE(manager.find("overflow"), nullptr);
    EXPECT_EQ(manager.find("no-such-pass"), nullptr);
}

TEST(PassManagerTest, SelectionRunsOnlyNamedPasses)
{
    // "contract" at a non-power-of-two partition warns (COP024);
    // selecting only "spec" must not surface it.
    LintOptions options;
    options.partitionSizes = {12};
    const LintReport contract =
        PassManager::standard().run(options, {"contract"});
    EXPECT_TRUE(hasId(contract, "COP024")) << contract.toString();
    const LintReport spec =
        PassManager::standard().run(options, {"spec"});
    EXPECT_FALSE(hasId(spec, "COP024")) << spec.toString();
}

TEST(PassManagerTest, UnknownPassNameIsAnError)
{
    const LintReport report =
        PassManager::standard().run(LintOptions(), {"bogus"});
    EXPECT_EQ(report.errorCount(), 1u) << report.toString();
    EXPECT_EQ(report.diagnostics[0].pass, "driver");
}

TEST(PassManagerTest, TileChecksShareOneSweepAndOneEncodePerPair)
{
    // Three tile passes, with a whole-run pass between the second and
    // the third; each tile check logs what it saw and emits one
    // diagnostic per (tile, format) pair.
    struct Visit
    {
        std::string pass;
        FormatKind format;
        Index p;
        Index nnz;
        std::uintptr_t encoding;
    };
    std::vector<Visit> log;
    const auto tilePass = [&log](const std::string &name) {
        PassInfo pass;
        pass.name = name;
        pass.checkTile = [&log, name](const LintOptions &,
                                      const Tile &tile,
                                      const EncodedTile &encoded,
                                      LintReport &report) {
            log.push_back({name, encoded.kind(), tile.size(), tile.nnz(),
                           reinterpret_cast<std::uintptr_t>(&encoded)});
            report.warning(name, std::string(formatName(encoded.kind())),
                           "p=" + std::to_string(tile.size()) +
                               " nnz=" + std::to_string(tile.nnz()));
        };
        return pass;
    };
    PassManager manager;
    manager.add(tilePass("first"));
    manager.add(tilePass("second"));
    manager.add({"whole", "a whole-run pass", {},
                 [](const LintOptions &, LintReport &report) {
                     report.warning("whole", "", "once per run");
                 }});
    manager.add(tilePass("third"));

    LintOptions options;
    options.partitionSizes = {8, 12, 16};
    std::vector<Visit> sweep;
    forEachLintTile(options.params, options.partitionSizes,
                    [&](const FormatCodec &codec, const Tile &tile) {
                        sweep.push_back({"", codec.kind(), tile.size(),
                                         tile.nnz(), 0});
                    });
    ASSERT_FALSE(sweep.empty());

    // One sweep: the three checks see each pair of forEachLintTile's
    // visits once, one after another, and are handed the same
    // encoding object for it.
    const LintReport full = manager.run(options);
    const std::vector<std::string> order = {"first", "second", "third"};
    ASSERT_EQ(log.size(), order.size() * sweep.size());
    for (std::size_t i = 0; i < log.size(); ++i) {
        const Visit &pair = sweep[i / order.size()];
        const Visit &first = log[i - i % order.size()];
        EXPECT_EQ(log[i].pass, order[i % order.size()]) << i;
        EXPECT_EQ(log[i].format, pair.format) << i;
        EXPECT_EQ(log[i].p, pair.p) << i;
        EXPECT_EQ(log[i].nnz, pair.nnz) << i;
        EXPECT_EQ(log[i].encoding, first.encoding) << i;
    }

    // The full report is each pass run alone, in registration order.
    EXPECT_EQ(full.diagnostics.size(), order.size() * sweep.size() + 1);
    std::string alone;
    for (const PassInfo &pass : manager.passes())
        alone += manager.run(options, {pass.name}).toString();
    EXPECT_EQ(full.toString(), alone);
}

// ---------------------------------------------------------------- //
// Overflow pass.

TEST(OverflowPassTest, CleanAtDefaultEnvelope)
{
    LintReport report;
    checkAccountingRanges(LintOptions(), AccountingEnvelope(), report);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(OverflowPassTest, AbsurdEnvelopeOverflowsUint64)
{
    // At 2^64-1 aggregate non-zeros over p=8 tiles, the 128-bit shadow
    // fold must exceed uint64 and say so.
    AccountingEnvelope envelope;
    envelope.maxPartition = 8;
    envelope.maxWorkloadNnz = UINT64_MAX;
    LintOptions options;
    options.partitionSizes = {8};
    LintReport report;
    checkAccountingRanges(options, envelope, report);
    EXPECT_TRUE(hasId(report, "COP061")) << report.toString();
}

TEST(OverflowPassTest, ByteAccountingFiguresAtAbsurdEnvelope)
{
    // The same envelope: COP062 fires for every format. Each 128-bit
    // total is the format's worst-case tile bytes (the buffer model's
    // totalBufferBits / 8) times the 2^58 p=8 tiles that can hold
    // 2^64-1 non-zeros.
    AccountingEnvelope envelope;
    envelope.maxPartition = 8;
    envelope.maxWorkloadNnz = UINT64_MAX;
    LintReport report;
    checkAccountingRanges(LintOptions(), envelope, report);
    std::map<std::string, std::string> totals;
    const std::string prefix = "aggregate byte accounting overflows "
                               "uint64 within the envelope: 128-bit "
                               "total ";
    for (const LintDiagnostic &d : report.diagnostics) {
        if (d.id != "COP062")
            continue;
        EXPECT_EQ(d.severity, LintSeverity::Error) << d.toString();
        ASSERT_EQ(d.message.rfind(prefix, 0), 0u) << d.toString();
        totals[d.format] = d.message.substr(prefix.size());
    }
    const std::map<std::string, std::string> expected = {
        {"DENSE", "73786976294838206464"},
        {"CSR", "156797324626531188736"},
        {"BCSR", "80704505322479288320"},
        {"CSC", "156797324626531188736"},
        {"LIL", "166020696663385964544"},
        {"ELL", "147573952589676412928"},
        {"COO", "221360928884514619392"},
        {"DIA", "155644403121924341760"},
        {"DOK", "221360928884514619392"},
        {"SELL", "149879795598890106880"},
        {"JDS", "167173618167992811520"},
        {"ELLCOO", "258254417031933722624"},
        {"SELLCS", "159103167635744882688"},
        {"BITMAP", "76092819304051900416"},
    };
    EXPECT_EQ(totals, expected) << report.toString();
}

TEST(OverflowPassTest, NarrowingCastScanFlagsAndWaives)
{
    LintReport report;
    scanForNarrowingCasts(
        "fake.cc",
        "Cycles total = 0;\n"
        "Index n = static_cast<Index>(total);\n"
        "Index m = static_cast<Index>(total); // lint: widening-ok\n",
        report);
    ASSERT_EQ(report.diagnostics.size(), 1u) << report.toString();
    EXPECT_EQ(report.diagnostics[0].id, "COP063");
    EXPECT_EQ(report.diagnostics[0].line, 2);
}

TEST(OverflowPassTest, AccountingHotFilesAreCastClean)
{
    // The full pass (range proof + source scan over the real
    // checkout) must be clean; a new narrowing cast in the accounting
    // files fails here before CI.
    LintReport report;
    runOverflowPass(LintOptions(), report);
    EXPECT_TRUE(report.ok()) << report.toString();
}

// ---------------------------------------------------------------- //
// Capacity pass.

TEST(CapacityPassTest, CleanAtDefaultSizes)
{
    LintReport report;
    runCapacityPass(LintOptions(), report);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(CapacityPassTest, OverSubscribedPipelinedChain)
{
    // Two consecutive pipelined segments demanding 2 accesses each on
    // a dual-port bank: neither alone over-subscribes, the chain does.
    ScheduleSpec spec;
    spec.format = FormatKind::CSR;
    SegmentSpec producer;
    producer.kind = SegmentKind::Pipelined;
    producer.name = "producer";
    producer.bankAccessesPerII = 2;
    SegmentSpec consumer = producer;
    consumer.name = "consumer";
    spec.segments = {producer, consumer};
    LintReport report;
    checkPortPressure(spec, HlsConfig(), report);
    ASSERT_TRUE(hasId(report, "COP070")) << report.toString();
    EXPECT_EQ(report.diagnostics[0].segment, "producer -> consumer");
}

TEST(CapacityPassTest, HugePartitionOverflowsBram)
{
    // COO keeps the full coordinate stream resident; at p = 4096 the
    // double-buffered working set cannot fit a single device's BRAM.
    LintReport report;
    checkBufferCapacity(FormatKind::COO, 4096, FormatParams(),
                        DeviceCapacity(), report);
    EXPECT_FALSE(report.ok()) << report.toString();
}

// ---------------------------------------------------------------- //
// Thread-safety pass.

TEST(ThreadSafetyPassTest, ProcessRegistryAndHeadersClean)
{
    LintReport report;
    runThreadSafetyPass(LintOptions(), report);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(ThreadSafetyPassTest, DuplicateRankIsAnError)
{
    LintReport report;
    checkLockOrderRegistry({{"a", 10}, {"b", 10}}, report);
    EXPECT_TRUE(hasId(report, "COP080")) << report.toString();
}

TEST(ThreadSafetyPassTest, DuplicateOrEmptyNameIsAnError)
{
    LintReport duplicate;
    checkLockOrderRegistry({{"a", 10}, {"a", 20}}, duplicate);
    EXPECT_TRUE(hasId(duplicate, "COP081")) << duplicate.toString();

    LintReport empty;
    checkLockOrderRegistry({{"", 10}}, empty);
    EXPECT_TRUE(hasId(empty, "COP081")) << empty.toString();
}

TEST(ThreadSafetyPassTest, BareMutexMemberFlaggedUnlessMarked)
{
    LintReport bare;
    scanHeaderForBareMutexes("src/foo/bar.hh",
                             "class X {\n    std::mutex lock;\n};\n",
                             bare);
    EXPECT_TRUE(hasId(bare, "COP082")) << bare.toString();

    LintReport marked;
    scanHeaderForBareMutexes(
        "src/foo/bar.hh",
        "class X {\n"
        "    // CV-paired with wakeCv; documented exclusion.\n"
        "    std::mutex lock;\n"
        "};\n",
        marked);
    EXPECT_TRUE(marked.ok()) << marked.toString();

    LintReport wrapped;
    scanHeaderForBareMutexes(
        "src/foo/bar.hh",
        "    std::lock_guard<std::mutex> guard(lock);\n", wrapped);
    EXPECT_TRUE(wrapped.ok()) << wrapped.toString();
}

// ---------------------------------------------------------------- //
// Protocol pass.

TEST(ProtocolPassTest, ServeSurfaceConforms)
{
    const ProtocolSurface surface = collectServeProtocolSurface();
    LintReport report;
    checkProtocolSurface(surface, report);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(ProtocolPassTest, DriftFiresEachDirection)
{
    ProtocolSurface surface;
    surface.handledEndpoints = {"ping", "secret"};
    surface.documentedEndpoints = {"ping", "retired"};
    surface.wideEventFields = {"type", "renamed_field"};
    surface.documentedWideEventFields = {"type", "old_field"};
    surface.metricNames = {"copernicus_new_total"};
    surface.documentedMetricNames = {"copernicus_old_total"};
    LintReport report;
    checkProtocolSurface(surface, report);
    EXPECT_TRUE(hasId(report, "COP090")) << report.toString();
    EXPECT_TRUE(hasId(report, "COP091")) << report.toString();
    EXPECT_TRUE(hasId(report, "COP092")) << report.toString();
    EXPECT_TRUE(hasId(report, "COP093")) << report.toString();
}

TEST(ProtocolPassTest, SkippedWithoutSurface)
{
    LintReport report;
    runProtocolPass(LintOptions(), report); // protocol == nullptr
    EXPECT_TRUE(report.ok()) << report.toString();
}

// ---------------------------------------------------------------- //
// Compress pass.

TEST(CompressPassTest, StoredNeverExceedsRawOnMixedTiles)
{
    const FormatRegistry registry;
    TileBuilder builder(8);
    builder.set(0, 0, 1);
    builder.set(3, 4, 2);
    builder.set(7, 7, 3);
    const Tile tile = builder.build();
    LintReport report;
    for (FormatKind kind : allFormats())
        checkTileCompression(LintOptions(), tile,
                             *registry.codec(kind).encode(tile), report);
    EXPECT_TRUE(report.ok()) << report.toString();
}

// ---------------------------------------------------------------- //
// Store pass.

TEST(StorePassTest, RegisteredWithContainerRules)
{
    const PassInfo *pass = PassManager::standard().find("store");
    ASSERT_NE(pass, nullptr);
    EXPECT_EQ(pass->ids,
              (std::vector<std::string>{"COP110", "COP111", "COP112"}));
}

TEST(StorePassTest, SelfInjectionSuiteRunsClean)
{
    // The pass round-trips fresh containers and injects one defect per
    // rule class; a sound inspector reports nothing at the top level.
    LintReport report;
    runStorePass(LintOptions(), report);
    EXPECT_TRUE(report.ok()) << report.toString();
}

TEST(StorePassTest, FlagsCorruptedUserContainer)
{
    Rng rng(0xC0B);
    TripletMatrix m = randomMatrix(64, 0.1, rng);
    m.finalize();
    const std::string path =
        testing::TempDir() + "/copernicus_lint_corrupt.cbm";
    writeCbmFile(path, m, 1, /*chunkTargetNnz=*/64);
    {
        // Flip one payload value bit: header and directory still
        // check out, only the content hash betrays it.
        std::fstream f(path,
                       std::ios::in | std::ios::out | std::ios::binary);
        f.seekg(sizeof(CbmHeader) + 8);
        char byte = 0;
        f.read(&byte, 1);
        byte = static_cast<char>(byte ^ 0x1);
        f.seekp(sizeof(CbmHeader) + 8);
        f.write(&byte, 1);
    }

    LintOptions options;
    options.storeContainers.push_back(path);
    LintReport report;
    runStorePass(options, report);
    EXPECT_TRUE(hasId(report, "COP112")) << report.toString();
    EXPECT_FALSE(hasId(report, "COP110")) << report.toString();
    EXPECT_FALSE(hasId(report, "COP111")) << report.toString();
    std::remove(path.c_str());

    // A container that cannot be opened at all is a header finding.
    LintReport missing;
    checkContainerFile(path, missing);
    EXPECT_TRUE(hasId(missing, "COP110")) << missing.toString();
}

// ---------------------------------------------------------------- //
// Baseline.

TEST(BaselineTest, ParseStripsCommentsAndNormalizes)
{
    const LintBaseline baseline = parseBaseline(
        "# header comment\n"
        "\n"
        "COP063  overflow   buffer_model.cc  -  # trailing note\n"
        "  COP024 contract ELL -\n");
    ASSERT_EQ(baseline.fingerprints.size(), 2u);
    EXPECT_EQ(baseline.fingerprints[0],
              "COP063 overflow buffer_model.cc -");
    EXPECT_EQ(baseline.fingerprints[1], "COP024 contract ELL -");
}

TEST(BaselineTest, ApplySuppressesAndReportsStale)
{
    LintReport report;
    report.error("COP004", "spec", "CSR", "ports");
    report.error("COP010", "body", "COO", "ii");

    LintBaseline baseline;
    baseline.fingerprints = {"COP004 spec CSR -",
                             "COP099 nowhere gone -"};
    std::vector<std::string> unused;
    const std::size_t suppressed =
        applyBaseline(report, baseline, &unused);
    EXPECT_EQ(suppressed, 1u);
    ASSERT_EQ(report.diagnostics.size(), 1u);
    EXPECT_EQ(report.diagnostics[0].id, "COP010");
    ASSERT_EQ(unused.size(), 1u);
    EXPECT_EQ(unused[0], "COP099 nowhere gone -");
}

TEST(BaselineTest, RoundTripThroughGeneratedText)
{
    LintReport report;
    report.error("COP004", "spec", "CSR", "ports");
    report.warning("COP024", "contract", "ELL", "non-pow2");
    const LintBaseline baseline =
        parseBaseline(baselineFromReport(report));
    LintReport again;
    again.error("COP004", "spec", "CSR", "other wording");
    again.warning("COP024", "contract", "ELL", "other wording");
    EXPECT_EQ(applyBaseline(again, baseline, nullptr), 2u);
    EXPECT_TRUE(again.diagnostics.empty());
}

// ---------------------------------------------------------------- //
// Emitters.

LintReport
sampleReport()
{
    LintReport report;
    report.error("COP004", "spec", "CSR", "too many ports");
    LintDiagnostic d;
    d.severity = LintSeverity::Warning;
    d.id = "COP063";
    d.pass = "overflow";
    d.file = "src/fpga/buffer_model.cc";
    d.line = 7;
    d.message = "narrowing cast";
    d.fixHint = "widen it";
    report.add(std::move(d));
    return report;
}

TEST(EmittersTest, JsonDocumentParsesAndCounts)
{
    JsonValue doc;
    ASSERT_TRUE(parseJson(lintReportToJson(sampleReport()), doc));
    EXPECT_EQ(doc.numberOr("errors", -1), 1);
    EXPECT_EQ(doc.numberOr("warnings", -1), 1);
}

TEST(EmittersTest, SarifDocumentValidates)
{
    std::string why;
    EXPECT_TRUE(
        validateSarifDocument(lintReportToSarif(sampleReport()), &why))
        << why;
    EXPECT_TRUE(validateSarifDocument(lintReportToSarif(LintReport())))
        << "empty reports must still produce valid SARIF";
}

TEST(EmittersTest, SarifValidatorRejectsBrokenDocuments)
{
    EXPECT_FALSE(validateSarifDocument("not json"));
    EXPECT_FALSE(validateSarifDocument("{}"));
    EXPECT_FALSE(validateSarifDocument(
        "{\"version\": \"2.1.0\", \"runs\": []}"));
    std::string why;
    EXPECT_FALSE(validateSarifDocument(
        "{\"version\": \"1.0.0\", \"runs\": [{\"tool\": {\"driver\": "
        "{\"name\": \"x\"}}, \"results\": []}]}",
        &why));
    EXPECT_FALSE(why.empty());
}

TEST(EmittersTest, SarifCarriesLocationsAndRules)
{
    const std::string text = lintReportToSarif(sampleReport());
    JsonValue doc;
    ASSERT_TRUE(parseJson(text, doc));
    EXPECT_NE(text.find("\"COP004\""), std::string::npos);
    EXPECT_NE(text.find("\"COP063\""), std::string::npos);
    EXPECT_NE(text.find("buffer_model.cc"), std::string::npos);
    EXPECT_NE(text.find("logicalLocations"), std::string::npos);
}

// ---------------------------------------------------------------- //
// Driver: the CLI-facing behavior both binaries share.

TEST(LintDriverTest, ListPassesPrintsEveryPassName)
{
    LintDriverOptions options;
    options.listPasses = true;
    std::ostringstream out;
    EXPECT_EQ(runLintDriver(options, out), 0);
    for (const PassInfo &pass : PassManager::standard().passes())
        EXPECT_NE(out.str().find(pass.name), std::string::npos)
            << pass.name;
}

TEST(LintDriverTest, UnknownPassExitsNonzero)
{
    LintDriverOptions options;
    options.passes = {"bogus"};
    std::ostringstream out;
    EXPECT_EQ(runLintDriver(options, out), 1);
}

TEST(LintDriverTest, MissingBaselineIsAnError)
{
    LintDriverOptions options;
    options.passes = {"spec"};
    options.baselinePath = "/nonexistent/lint_baseline.txt";
    std::ostringstream out;
    EXPECT_EQ(runLintDriver(options, out), 1);
}

TEST(LintDriverTest, MalformedPartitionSizeListIsFatal)
{
    EXPECT_EQ(parsePartitionSizes("8,16,32"),
              (std::vector<Index>{8, 16, 32}));
    for (const char *bad : {"", "8,x", "8,,16", "-8", "8x", "99999999999",
                            "lint.txt", "0", "8,0"})
        EXPECT_THROW(parsePartitionSizes(bad), FatalError) << bad;
}

TEST(LintDriverTest, JsonModeEmitsParseableDocument)
{
    LintDriverOptions options;
    options.passes = {"spec"};
    options.json = true;
    std::ostringstream out;
    EXPECT_EQ(runLintDriver(options, out), 0);
    JsonValue doc;
    EXPECT_TRUE(parseJson(out.str(), doc)) << out.str();
}

} // namespace
} // namespace copernicus
