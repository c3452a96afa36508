/**
 * @file
 * Mutation tests for the encoded-tile grammar validator: corrupt every
 * format's encoding in a format-specific way (swapped row pointers,
 * unsorted COO tuples, dirty ELL padding, misaligned BCSR blocks,
 * out-of-range DIA offsets, broken permutations, ...) and assert the
 * validator reports the exact format and offending invariant id.
 *
 * The seeded-defect suite at the bottom does the same for the deep
 * analyzer passes: inject a narrowing cast, an over-subscribed
 * pipelined BRAM chain, a dropped lock annotation, and an
 * undocumented endpoint, and assert each is caught under its expected
 * COP rule id. The rendered diagnostics are pinned against
 * tests/golden/seeded_lint_defects.txt (regenerate with
 * COPERNICUS_REGEN_GOLDEN=1).
 */

#include <algorithm>
#include <gtest/gtest.h>

#include <cstdlib>
#include <fstream>
#include <span>
#include <sstream>

#include "analysis/capacity_pass.hh"
#include "analysis/overflow_pass.hh"
#include "analysis/protocol_pass.hh"
#include "analysis/thread_safety_pass.hh"
#include "formats/bcsr_format.hh"
#include "formats/bitmap_format.hh"
#include "formats/coo_format.hh"
#include "formats/csc_format.hh"
#include "formats/csr_format.hh"
#include "formats/dia_format.hh"
#include "formats/dok_format.hh"
#include "formats/ell_format.hh"
#include "formats/ellcoo_format.hh"
#include "formats/jds_format.hh"
#include "formats/lil_format.hh"
#include "formats/registry.hh"
#include "formats/sell_format.hh"
#include "formats/sellcs_format.hh"
#include "formats/validate.hh"

namespace copernicus {
namespace {

/**
 * p=8 band tile plus two strays, dense enough that every format stores
 * something non-trivial (multi-entry rows/columns, two ELL+COO
 * overflow tuples, four stored diagonals).
 */
Tile
mutationTile()
{
    Tile t(8);
    for (Index r = 0; r < 8; ++r) {
        t(r, r) = Value(1) + Value(r);
        if (r + 1 < 8)
            t(r, r + 1) = 2;
    }
    t(5, 1) = 7;
    t(3, 0) = 5;
    return t;
}

/** Encode mutationTile() as @p kind and hand back the concrete type. */
template <typename Encoded>
std::unique_ptr<EncodedTile>
encodeTile(FormatKind kind)
{
    auto encoded = defaultCodec(kind).encode(mutationTile());
    EXPECT_NE(dynamic_cast<Encoded *>(encoded.get()), nullptr);
    return encoded;
}

/** The pristine encoding must validate; the reference for mutations. */
void
expectClean(const EncodedTile &encoded)
{
    const GrammarReport report = validateEncodedTile(encoded);
    EXPECT_TRUE(report.ok()) << report.toString();
}

/** Assert @p invariant is reported against @p kind, format-qualified. */
void
expectViolation(const EncodedTile &encoded, FormatKind kind,
                const std::string &invariant)
{
    const GrammarReport report = validateEncodedTile(encoded);
    ASSERT_FALSE(report.ok())
        << invariant << " expected but the tile validated clean";
    const bool found = std::any_of(
        report.violations.begin(), report.violations.end(),
        [&](const GrammarViolation &v) {
            return v.format == kind && v.invariant == invariant;
        });
    EXPECT_TRUE(found) << "expected " << invariant << ", got:\n"
                       << report.toString();
    // Every diagnostic names the mutated format, nothing else.
    for (const GrammarViolation &v : report.violations)
        EXPECT_EQ(v.format, kind) << v.toString();
}

TEST(GrammarMutationTest, AllFormatsEncodeClean)
{
    for (FormatKind kind : allFormats())
        expectClean(*defaultCodec(kind).encode(mutationTile()));
}

TEST(GrammarMutationTest, CsrSwappedRowPointers)
{
    auto encoded = encodeTile<CsrEncoded>(FormatKind::CSR);
    auto &csr = static_cast<CsrEncoded &>(*encoded);
    std::swap(csr.offsets[0], csr.offsets[1]);
    expectViolation(*encoded, FormatKind::CSR, "csr.offsets.monotone");
}

TEST(GrammarMutationTest, CsrUnsortedColumns)
{
    auto encoded = encodeTile<CsrEncoded>(FormatKind::CSR);
    auto &csr = static_cast<CsrEncoded &>(*encoded);
    std::swap(csr.colInx[0], csr.colInx[1]);
    expectViolation(*encoded, FormatKind::CSR, "csr.col.sorted");
}

TEST(GrammarMutationTest, CscUnsortedRowsWithinColumn)
{
    auto encoded = encodeTile<CscEncoded>(FormatKind::CSC);
    auto &csc = static_cast<CscEncoded &>(*encoded);
    std::swap(csc.rowInx[0], csc.rowInx[1]);
    expectViolation(*encoded, FormatKind::CSC, "csc.row.sorted");
}

TEST(GrammarMutationTest, CooUnsortedTuples)
{
    auto encoded = encodeTile<CooEncoded>(FormatKind::COO);
    auto &coo = static_cast<CooEncoded &>(*encoded);
    std::swap(coo.rowInx[0], coo.rowInx[1]);
    std::swap(coo.colInx[0], coo.colInx[1]);
    std::swap(coo.values[0], coo.values[1]);
    expectViolation(*encoded, FormatKind::COO, "coo.order");
}

TEST(GrammarMutationTest, BcsrMisalignedBlock)
{
    auto encoded = encodeTile<BcsrEncoded>(FormatKind::BCSR);
    auto &bcsr = static_cast<BcsrEncoded &>(*encoded);
    bcsr.colInx[0] += 1;
    expectViolation(*encoded, FormatKind::BCSR,
                    "bcsr.block.alignment");
}

TEST(GrammarMutationTest, EllDirtyPadding)
{
    auto encoded = encodeTile<EllEncoded>(FormatKind::ELL);
    auto &ell = static_cast<EllEncoded &>(*encoded);
    // Row 0 holds 2 entries against width >= 6: slot 3 is padding.
    ASSERT_EQ(ell.colAt(0, 3), EllEncoded::padMarker);
    ell.valueAt(0, 3) = 9;
    expectViolation(*encoded, FormatKind::ELL, "ell.padding");
}

TEST(GrammarMutationTest, EllNotLeftPushed)
{
    auto encoded = encodeTile<EllEncoded>(FormatKind::ELL);
    auto &ell = static_cast<EllEncoded &>(*encoded);
    ell.valueAt(0, 0) = 0;
    ell.colAt(0, 0) = EllEncoded::padMarker;
    expectViolation(*encoded, FormatKind::ELL, "ell.padding");
}

TEST(GrammarMutationTest, SellTruncatedSlice)
{
    auto encoded = encodeTile<SellEncoded>(FormatKind::SELL);
    auto &sell = static_cast<SellEncoded &>(*encoded);
    sell.slices[0].width += 1;
    expectViolation(*encoded, FormatKind::SELL, "sell.shape");
}

TEST(GrammarMutationTest, SellCsBrokenPermutation)
{
    auto encoded = encodeTile<SellCsEncoded>(FormatKind::SELLCS);
    auto &scs = static_cast<SellCsEncoded &>(*encoded);
    scs.perm[0] = scs.perm[1];
    expectViolation(*encoded, FormatKind::SELLCS, "sellcs.perm");
}

TEST(GrammarMutationTest, DiaOffsetOutOfRange)
{
    auto encoded = encodeTile<DiaEncoded>(FormatKind::DIA);
    auto &dia = static_cast<DiaEncoded &>(*encoded);
    dia.diagonals.back().number = 9; // valid range is [-7, 7]
    expectViolation(*encoded, FormatKind::DIA, "dia.offset.range");
}

TEST(GrammarMutationTest, DiaUnsortedDiagonals)
{
    auto encoded = encodeTile<DiaEncoded>(FormatKind::DIA);
    auto &dia = static_cast<DiaEncoded &>(*encoded);
    ASSERT_GE(dia.diagonals.size(), 2u);
    std::swap(dia.diagonals[0], dia.diagonals[1]);
    expectViolation(*encoded, FormatKind::DIA, "dia.order");
}

TEST(GrammarMutationTest, JdsBrokenPermutation)
{
    auto encoded = encodeTile<JdsEncoded>(FormatKind::JDS);
    auto &jds = static_cast<JdsEncoded &>(*encoded);
    jds.perm()[0] = jds.perm()[1];
    expectViolation(*encoded, FormatKind::JDS, "jds.perm");
}

TEST(GrammarMutationTest, JdsNonMonotonePointers)
{
    auto encoded = encodeTile<JdsEncoded>(FormatKind::JDS);
    auto &jds = static_cast<JdsEncoded &>(*encoded);
    const std::span<Index> jdPtr = jds.jdPtr();
    ASSERT_GE(jdPtr.size(), 3u);
    std::swap(jdPtr[1], jdPtr[2]);
    expectViolation(*encoded, FormatKind::JDS, "jds.jdptr.monotone");
}

TEST(GrammarMutationTest, LilUnsortedColumnList)
{
    auto encoded = encodeTile<LilEncoded>(FormatKind::LIL);
    auto &lil = static_cast<LilEncoded &>(*encoded);
    // Column 1 holds rows 0, 1, 5; swapping the first two levels
    // breaks the ascending row order the merge network relies on.
    ASSERT_EQ(lil.rowAt(0, 1), 0u);
    ASSERT_EQ(lil.rowAt(1, 1), 1u);
    std::swap(lil.rowAt(0, 1), lil.rowAt(1, 1));
    std::swap(lil.valueAt(0, 1), lil.valueAt(1, 1));
    expectViolation(*encoded, FormatKind::LIL, "lil.rows.sorted");
}

TEST(GrammarMutationTest, DokKeyOutOfRange)
{
    auto encoded = encodeTile<DokEncoded>(FormatKind::DOK);
    auto &dok = static_cast<DokEncoded &>(*encoded);
    auto stray = dok.table.begin();
    const Value v = stray->second;
    dok.table.erase(stray);
    dok.table[DokEncoded::key(0, 9)] = v; // col 9 exceeds p = 8
    expectViolation(*encoded, FormatKind::DOK, "dok.key.range");
}

TEST(GrammarMutationTest, BitmapPopcountMismatch)
{
    auto encoded = encodeTile<BitmapEncoded>(FormatKind::BITMAP);
    auto &bitmap = static_cast<BitmapEncoded &>(*encoded);
    ASSERT_FALSE(bitmap.test(7, 0));
    bitmap.set(7, 0); // occupancy bit without a backing value
    expectViolation(*encoded, FormatKind::BITMAP, "bitmap.popcount");
}

TEST(GrammarMutationTest, EllCooUnsortedOverflow)
{
    auto encoded = encodeTile<EllCooEncoded>(FormatKind::ELLCOO);
    auto &hybrid = static_cast<EllCooEncoded &>(*encoded);
    ASSERT_GE(hybrid.overflowRows.size(), 2u);
    std::swap(hybrid.overflowRows[0], hybrid.overflowRows[1]);
    std::swap(hybrid.overflowCols[0], hybrid.overflowCols[1]);
    std::swap(hybrid.overflowValues[0], hybrid.overflowValues[1]);
    expectViolation(*encoded, FormatKind::ELLCOO,
                    "ellcoo.overflow.order");
}

// ---------------------------------------------------------------- //
// Seeded defects for the deep analyzer passes: each mutant must be
// caught under exactly its expected COP rule id.

bool
hasOnlyId(const LintReport &report, const std::string &id)
{
    return !report.diagnostics.empty() &&
           std::all_of(report.diagnostics.begin(),
                       report.diagnostics.end(),
                       [&](const LintDiagnostic &d) {
                           return d.id == id;
                       });
}

/** COP063: a Cycles total squeezed through a 32-bit cast. */
LintReport
narrowingCastMutant()
{
    LintReport report;
    scanForNarrowingCasts(
        "src/formats/size_model.cc",
        "Bytes total = entries * 12;\n"
        "return static_cast<Index>(total);\n",
        report);
    return report;
}

/** COP070: consecutive pipelined segments over one dual-port bank. */
LintReport
portChainMutant()
{
    ScheduleSpec spec;
    spec.format = FormatKind::ELLCOO;
    SegmentSpec sweep;
    sweep.kind = SegmentKind::Pipelined;
    sweep.name = "ell sweep";
    sweep.bankAccessesPerII = 2;
    SegmentSpec overflow = sweep;
    overflow.name = "overflow loop";
    overflow.bankAccessesPerII = 1;
    spec.segments = {sweep, overflow};
    LintReport report;
    checkPortPressure(spec, HlsConfig(), report);
    return report;
}

/** COP082: a mutex member that lost its annotation wrapper. */
LintReport
droppedAnnotationMutant()
{
    LintReport report;
    scanHeaderForBareMutexes("src/serve/server.hh",
                             "class Server {\n"
                             "    std::mutex admitMutex;\n"
                             "};\n",
                             report);
    return report;
}

/** COP090: a handler shipped without documentation. */
LintReport
undocumentedEndpointMutant()
{
    ProtocolSurface surface;
    surface.handledEndpoints = {"ping", "debug_peek"};
    surface.documentedEndpoints = {"ping"};
    LintReport report;
    checkProtocolSurface(surface, report);
    return report;
}

TEST(SeededDefectTest, NarrowingCastCaughtAsCop063)
{
    const LintReport report = narrowingCastMutant();
    EXPECT_TRUE(hasOnlyId(report, "COP063")) << report.toString();
}

TEST(SeededDefectTest, OverSubscribedChainCaughtAsCop070)
{
    const LintReport report = portChainMutant();
    EXPECT_TRUE(hasOnlyId(report, "COP070")) << report.toString();
    EXPECT_EQ(report.diagnostics[0].segment,
              "ell sweep -> overflow loop");
}

TEST(SeededDefectTest, DroppedLockAnnotationCaughtAsCop082)
{
    const LintReport report = droppedAnnotationMutant();
    EXPECT_TRUE(hasOnlyId(report, "COP082")) << report.toString();
}

TEST(SeededDefectTest, UndocumentedEndpointCaughtAsCop090)
{
    const LintReport report = undocumentedEndpointMutant();
    EXPECT_TRUE(hasOnlyId(report, "COP090")) << report.toString();
    EXPECT_NE(report.diagnostics[0].message.find("debug_peek"),
              std::string::npos)
        << report.toString();
}

/**
 * The rendered diagnostics for all four mutants, pinned golden: a
 * reworded message or a reassigned rule id is a reviewable diff, not
 * a silent behavior change.
 */
TEST(SeededDefectTest, DiagnosticsMatchGolden)
{
    std::ostringstream rendered;
    rendered << narrowingCastMutant().toString()
             << portChainMutant().toString()
             << droppedAnnotationMutant().toString()
             << undocumentedEndpointMutant().toString();

    const std::string path = std::string(COPERNICUS_GOLDEN_DIR) +
                             "/seeded_lint_defects.txt";
    const char *regen = std::getenv("COPERNICUS_REGEN_GOLDEN");
    if (regen != nullptr && regen[0] == '1') {
        std::ofstream out(path);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << rendered.str();
        GTEST_SKIP() << "regenerated " << path;
    }
    std::ifstream in(path);
    ASSERT_TRUE(in) << "missing golden file " << path
                    << " (regenerate with COPERNICUS_REGEN_GOLDEN=1)";
    std::ostringstream golden;
    golden << in.rdbuf();
    EXPECT_EQ(rendered.str(), golden.str());
}

} // namespace
} // namespace copernicus
