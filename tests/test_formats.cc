/**
 * @file
 * Per-format layout tests: each codec's encoded arrays are checked
 * against hand-computed expectations on small tiles (the Figure-1 style
 * examples), plus the byte-accounting rules the metrics depend on.
 */

#include <map>
#include <string>
#include <vector>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "compress/second_stage.hh"
#include "formats/bcsr_format.hh"
#include "formats/coo_format.hh"
#include "formats/csc_format.hh"
#include "formats/csr_format.hh"
#include "formats/dense_format.hh"
#include "formats/dia_format.hh"
#include "formats/dok_format.hh"
#include "formats/ell_format.hh"
#include "formats/ellcoo_format.hh"
#include "formats/jds_format.hh"
#include "formats/lil_format.hh"
#include "formats/bitmap_format.hh"
#include "formats/registry.hh"
#include "formats/sell_format.hh"
#include "formats/sellcs_format.hh"

namespace copernicus {
namespace {

/** 4x4 example tile:
 *    [ 1 0 2 0 ]
 *    [ 0 0 0 0 ]
 *    [ 0 3 0 0 ]
 *    [ 4 0 0 5 ]
 */
Tile
exampleTile()
{
    TileBuilder t(4);
    t.set(0, 0, 1);
    t.set(0, 2, 2);
    t.set(2, 1, 3);
    t.set(3, 0, 4);
    t.set(3, 3, 5);
    return t.build();
}

TEST(FormatKindTest, NamesRoundTrip)
{
    for (FormatKind kind : allFormats())
        EXPECT_EQ(parseFormatKind(formatName(kind)), kind);
}

TEST(FormatKindTest, UnknownNameIsFatal)
{
    EXPECT_THROW(parseFormatKind("NOPE"), FatalError);
}

TEST(FormatKindTest, ListSizes)
{
    EXPECT_EQ(paperFormats().size(), 8u);
    EXPECT_EQ(sparseFormats().size(), 7u);
    EXPECT_EQ(extensionFormats().size(), 6u);
    EXPECT_EQ(allFormats().size(), 14u);
}

TEST(FormatKindTest, RegistryCoversAllKinds)
{
    for (FormatKind kind : allFormats())
        EXPECT_EQ(defaultCodec(kind).kind(), kind);
}

TEST(CsrFormatTest, LayoutMatchesHandEncoding)
{
    const auto encoded = CsrCodec().encode(exampleTile());
    const auto &csr = encodedAs<CsrEncoded>(*encoded, FormatKind::CSR);
    // Cumulative-count offsets, length p.
    EXPECT_EQ(csr.offsets, (std::vector<Index>{2, 2, 3, 5}));
    EXPECT_EQ(csr.colInx, (std::vector<Index>{0, 2, 1, 0, 3}));
    EXPECT_EQ(csr.values, (std::vector<Value>{1, 2, 3, 4, 5}));
    EXPECT_EQ(csr.rowStart(0), 0u);
    EXPECT_EQ(csr.rowEnd(0), 2u);
    EXPECT_EQ(csr.rowStart(1), 2u);
    EXPECT_EQ(csr.rowEnd(1), 2u); // empty row
}

TEST(CsrFormatTest, ByteAccounting)
{
    const auto encoded = CsrCodec().encode(exampleTile());
    EXPECT_EQ(encoded->usefulBytes(), 5u * 4u);
    // 5 col indices + 4 offsets.
    EXPECT_EQ(encoded->metadataBytes(), (5u + 4u) * 4u);
    EXPECT_EQ(encoded->streams().size(), 3u);
}

TEST(CsrFormatTest, TotalBytesFollowsEditedArrays)
{
    // The encoded arrays are public (the mutation tests edit them), so
    // totalBytes() must reflect them on every call, not a stale sum.
    const auto encoded = CsrCodec().encode(exampleTile());
    auto &csr = static_cast<CsrEncoded &>(*encoded);
    const Bytes before = encoded->totalBytes();
    csr.colInx.push_back(1);
    csr.values.push_back(6);
    ++csr.offsets.back();
    EXPECT_EQ(encoded->totalBytes(), before + indexBytes + valueBytes);
}

TEST(CscFormatTest, LayoutMatchesHandEncoding)
{
    const auto encoded = CscCodec().encode(exampleTile());
    const auto &csc = encodedAs<CscEncoded>(*encoded, FormatKind::CSC);
    EXPECT_EQ(csc.offsets, (std::vector<Index>{2, 3, 4, 5}));
    EXPECT_EQ(csc.rowInx, (std::vector<Index>{0, 3, 2, 0, 3}));
    EXPECT_EQ(csc.values, (std::vector<Value>{1, 4, 3, 2, 5}));
}

TEST(BcsrFormatTest, SingleBlockLayout)
{
    TileBuilder t(8);
    t.set(0, 0, 1);
    t.set(2, 3, 2); // same top-left 4x4 block
    const auto encoded = BcsrCodec(4).encode(t.build());
    const auto &bcsr = encodedAs<BcsrEncoded>(*encoded, FormatKind::BCSR);
    EXPECT_EQ(bcsr.offsets, (std::vector<Index>{1, 1}));
    ASSERT_EQ(bcsr.values.size(), 1u);
    EXPECT_EQ(bcsr.colInx[0], 0u);
    // Flattened row-major block with in-block zeros kept.
    EXPECT_FLOAT_EQ(bcsr.values[0][0], 1.0f);
    EXPECT_FLOAT_EQ(bcsr.values[0][2 * 4 + 3], 2.0f);
    EXPECT_EQ(bcsr.values[0].size(), 16u);
}

TEST(BcsrFormatTest, BlockColumnIndexIsFirstColumn)
{
    TileBuilder t(8);
    t.set(5, 6, 9); // block row 1, block col 1
    const auto encoded = BcsrCodec(4).encode(t.build());
    const auto &bcsr = encodedAs<BcsrEncoded>(*encoded, FormatKind::BCSR);
    EXPECT_EQ(bcsr.offsets, (std::vector<Index>{0, 1}));
    EXPECT_EQ(bcsr.colInx[0], 4u);
}

TEST(BcsrFormatTest, BlockSizeMustDivideTile)
{
    Tile t(6);
    EXPECT_THROW(BcsrCodec(4).encode(t), FatalError);
}

TEST(BcsrFormatTest, InBlockZerosAreOverheadBytes)
{
    TileBuilder t(8);
    t.set(0, 0, 1);
    const auto encoded = BcsrCodec(4).encode(t.build());
    EXPECT_EQ(encoded->usefulBytes(), 4u);
    // 15 in-block zeros + 1 column index + 2 offsets.
    EXPECT_EQ(encoded->metadataBytes(), (15u + 1u + 2u) * 4u);
}

TEST(CooFormatTest, TuplesRowMajor)
{
    const auto encoded = CooCodec().encode(exampleTile());
    const auto &coo = encodedAs<CooEncoded>(*encoded, FormatKind::COO);
    EXPECT_EQ(coo.rowInx, (std::vector<Index>{0, 0, 2, 3, 3}));
    EXPECT_EQ(coo.colInx, (std::vector<Index>{0, 2, 1, 0, 3}));
    EXPECT_EQ(coo.values, (std::vector<Value>{1, 2, 3, 4, 5}));
}

TEST(CooFormatTest, BandwidthUtilizationIsOneThird)
{
    // The paper's Figures 10-12: COO always transmits two indices per
    // value, pinning utilization at 1/3.
    const auto encoded = CooCodec().encode(exampleTile());
    EXPECT_DOUBLE_EQ(encoded->bandwidthUtilization(), 1.0 / 3.0);
}

TEST(DokFormatTest, SameWireBytesAsCoo)
{
    const Tile t = exampleTile();
    const auto coo = CooCodec().encode(t);
    const auto dok = DokCodec().encode(t);
    EXPECT_EQ(coo->totalBytes(), dok->totalBytes());
    EXPECT_DOUBLE_EQ(dok->bandwidthUtilization(), 1.0 / 3.0);
}

TEST(DokFormatTest, KeyPacking)
{
    const auto key = DokEncoded::key(3, 7);
    EXPECT_EQ(key >> 32, 3u);
    EXPECT_EQ(key & 0xffffffffULL, 7u);
}

TEST(LilFormatTest, ColumnsPushedToTop)
{
    const auto encoded = LilCodec().encode(exampleTile());
    const auto &lil = encodedAs<LilEncoded>(*encoded, FormatKind::LIL);
    // Longest column (col 0: rows 0, 3) + 1 sentinel row.
    EXPECT_EQ(lil.height(), 3u);
    EXPECT_EQ(lil.rowAt(0, 0), 0u);
    EXPECT_FLOAT_EQ(lil.valueAt(0, 0), 1.0f);
    EXPECT_EQ(lil.rowAt(1, 0), 3u);
    EXPECT_FLOAT_EQ(lil.valueAt(1, 0), 4.0f);
    EXPECT_EQ(lil.rowAt(2, 0), LilEncoded::endMarker);
    EXPECT_EQ(lil.rowAt(0, 1), 2u); // col 1 holds only (2,1)=3
    EXPECT_EQ(lil.rowAt(1, 1), LilEncoded::endMarker);
}

TEST(LilFormatTest, CompactListsCrossTheWire)
{
    // 5 non-zeros + one end marker per column, 8 bytes per entry.
    const auto encoded = LilCodec().encode(exampleTile());
    EXPECT_EQ(encoded->totalBytes(), (5u + 4u) * 8u);
}

TEST(EllFormatTest, WidthFloorsAtMinClampedToTile)
{
    EllCodec codec(6);
    TileBuilder small(4);
    small.set(0, 0, 1);
    EXPECT_EQ(codec.widthFor(small.build()), 4u); // min(6, p=4)
    TileBuilder wide(16);
    wide.set(0, 0, 1);
    EXPECT_EQ(codec.widthFor(wide.build()), 6u); // floor 6
}

TEST(EllFormatTest, WidthGrowsToLongestRow)
{
    EllCodec codec(6);
    TileBuilder t(16);
    for (Index c = 0; c < 10; ++c)
        t.set(3, c, 1);
    EXPECT_EQ(codec.widthFor(t.build()), 10u);
}

TEST(EllFormatTest, RowsPushedLeftWithPadding)
{
    const auto encoded = EllCodec(3).encode(exampleTile());
    const auto &ell = encodedAs<EllEncoded>(*encoded, FormatKind::ELL);
    EXPECT_EQ(ell.width(), 3u);
    EXPECT_EQ(ell.colAt(0, 0), 0u);
    EXPECT_EQ(ell.colAt(0, 1), 2u);
    EXPECT_EQ(ell.colAt(0, 2), EllEncoded::padMarker);
    EXPECT_EQ(ell.colAt(1, 0), EllEncoded::padMarker); // empty row
    EXPECT_FLOAT_EQ(ell.valueAt(3, 1), 5.0f);
}

TEST(SellFormatTest, PerSliceWidths)
{
    TileBuilder t(8);
    for (Index c = 0; c < 5; ++c)
        t.set(0, c, 1); // slice 0 width 5
    t.set(6, 1, 2);     // slice 1 width 1
    const auto encoded = SellCodec(4).encode(t.build());
    const auto &sell = encodedAs<SellEncoded>(*encoded, FormatKind::SELL);
    ASSERT_EQ(sell.slices.size(), 2u);
    EXPECT_EQ(sell.slices[0].width, 5u);
    EXPECT_EQ(sell.slices[1].width, 1u);
}

TEST(SellFormatTest, SliceMustDivideTile)
{
    Tile t(6);
    EXPECT_THROW(SellCodec(4).encode(t), FatalError);
}

TEST(SellFormatTest, SmallerThanEllForSkewedRows)
{
    // One long row forces plain ELL to a global width; SELL pays it in
    // one slice only.
    TileBuilder builder(16);
    for (Index c = 0; c < 12; ++c)
        builder.set(0, c, 1);
    for (Index r = 1; r < 16; ++r)
        builder.set(r, 0, 1);
    const Tile t = builder.build();
    const auto ell = EllCodec(6).encode(t);
    const auto sell = SellCodec(4).encode(t);
    EXPECT_LT(sell->totalBytes(), ell->totalBytes());
}

TEST(DiaFormatTest, DiagonalNumbersAndSlots)
{
    const auto encoded = DiaCodec().encode(exampleTile());
    const auto &dia = encodedAs<DiaEncoded>(*encoded, FormatKind::DIA);
    // Non-zero diagonals of the example: -3 (4), -1 (3), 0 (1,5), 2 (2).
    ASSERT_EQ(dia.diagonals.size(), 4u);
    EXPECT_EQ(dia.diagonals[0].number, -3);
    EXPECT_EQ(dia.diagonals[1].number, -1);
    EXPECT_EQ(dia.diagonals[2].number, 0);
    EXPECT_EQ(dia.diagonals[3].number, 2);
    // Main diagonal holds 1 at row 0 and 5 at row 3.
    EXPECT_FLOAT_EQ(dia.diagonals[2].values[0], 1.0f);
    EXPECT_FLOAT_EQ(dia.diagonals[2].values[3], 5.0f);
    // d = -3: element (3,0) sits at slot 3 + (-3) = 0.
    EXPECT_FLOAT_EQ(dia.diagonals[0].values[0], 4.0f);
}

TEST(DiaFormatTest, PureDiagonalUtilizationApproachesOne)
{
    // Section 6.3: DIA's utilization for a diagonal matrix is p/(p+1),
    // approaching 1 as the partition grows.
    for (Index p : {8u, 16u, 32u}) {
        TileBuilder t(p);
        for (Index i = 0; i < p; ++i)
            t.set(i, i, 1);
        const auto encoded = DiaCodec().encode(t.build());
        EXPECT_DOUBLE_EQ(encoded->bandwidthUtilization(),
                         double(p) / (p + 1));
    }
}

TEST(JdsFormatTest, PermutationSortsByRowLength)
{
    const auto encoded = JdsCodec().encode(exampleTile());
    const auto &jds = encodedAs<JdsEncoded>(*encoded, FormatKind::JDS);
    // Row lengths: r0=2, r1=0, r2=1, r3=2; stable sort: 0, 3, 2, 1.
    const std::vector<Index> perm(jds.perm().begin(), jds.perm().end());
    EXPECT_EQ(perm, (std::vector<Index>{0, 3, 2, 1}));
    // Two jagged diagonals: first has 3 entries, second 2.
    const std::vector<Index> jdPtr(jds.jdPtr().begin(), jds.jdPtr().end());
    EXPECT_EQ(jdPtr, (std::vector<Index>{0, 3, 5}));
    EXPECT_EQ(jds.values.size(), 5u);
}

TEST(EllCooFormatTest, OverflowSpillsToCoo)
{
    TileBuilder t(8);
    for (Index c = 0; c < 5; ++c)
        t.set(2, c, Value(c + 1));
    const auto encoded = EllCooCodec(2).encode(t.build());
    const auto &hybrid =
        encodedAs<EllCooEncoded>(*encoded, FormatKind::ELLCOO);
    EXPECT_EQ(hybrid.width(), 2u);
    EXPECT_EQ(hybrid.overflowValues.size(), 3u);
    EXPECT_EQ(hybrid.overflowRows[0], 2u);
    EXPECT_EQ(hybrid.overflowCols[0], 2u);
}

TEST(SellCsFormatTest, WindowedSortKeepsPermutationLocal)
{
    // One long row at the bottom: global JDS would move it to the top,
    // SELL-C-sigma may only move it within its sigma-window.
    TileBuilder t(16);
    for (Index c = 0; c < 10; ++c)
        t.set(12, c, 1);
    t.set(2, 5, 2);
    const auto encoded = SellCsCodec(4, 8).encode(t.build());
    const auto &scs = encodedAs<SellCsEncoded>(*encoded,
                                               FormatKind::SELLCS);
    ASSERT_EQ(scs.perm.size(), 16u);
    // Row 12 lives in window [8, 16): its sorted position stays there.
    Index position = 0;
    for (Index k = 0; k < 16; ++k)
        if (scs.perm[k] == 12)
            position = k;
    EXPECT_GE(position, 8u);
    // Window [8,16) sorts row 12 first.
    EXPECT_EQ(scs.perm[8], 12u);
}

TEST(SellCsFormatTest, NoWiderThanSell)
{
    // Windowed sorting can only shrink per-slice widths.
    TileBuilder builder(16);
    Rng rng(5);
    for (Index r = 0; r < 16; ++r)
        for (Index c = 0; c < 16; ++c)
            if (rng.chance(0.2))
                builder.set(r, c, 1);
    const Tile t = builder.build();
    const auto sell = SellCodec(4).encode(t);
    const auto scs = SellCsCodec(4, 8).encode(t);
    // Compare payload bytes minus the perm overhead scs carries.
    EXPECT_LE(scs->totalBytes(),
              sell->totalBytes() + 16u * indexBytes);
}

TEST(SellCsFormatTest, InvalidWindowIsFatal)
{
    EXPECT_THROW(SellCsCodec(4, 6), FatalError); // not a multiple
    Tile t(12);
    EXPECT_THROW(SellCsCodec(4, 8).encode(t), FatalError); // 8 !| 12
}

TEST(BitmapFormatTest, MaskAndValueLayout)
{
    const auto encoded = BitmapCodec().encode(exampleTile());
    const auto &bitmap = encodedAs<BitmapEncoded>(*encoded,
                                                  FormatKind::BITMAP);
    EXPECT_TRUE(bitmap.test(0, 0));
    EXPECT_TRUE(bitmap.test(3, 3));
    EXPECT_FALSE(bitmap.test(1, 1));
    // Values in row-major scan order.
    EXPECT_EQ(bitmap.values, (std::vector<Value>{1, 2, 3, 4, 5}));
}

TEST(BitmapFormatTest, FixedMetadataBytes)
{
    // The mask costs p*p/8 bytes regardless of sparsity.
    for (Index p : {8u, 16u, 32u}) {
        TileBuilder t(p);
        t.set(0, 0, 1);
        const auto encoded = BitmapCodec().encode(t.build());
        EXPECT_EQ(encoded->metadataBytes(), Bytes(p) * p / 8);
    }
}

TEST(BitmapFormatTest, BeatsCooUtilizationOnModerateTiles)
{
    // The extension's selling point: above ~1 nnz per 16 cells the
    // bitmap's fixed mask beats COO's two-indices-per-value.
    TileBuilder builder(16);
    Rng rng(6);
    for (Index r = 0; r < 16; ++r)
        for (Index c = 0; c < 16; ++c)
            if (rng.chance(0.2))
                builder.set(r, c, 1);
    const Tile t = builder.build();
    const auto bitmap = BitmapCodec().encode(t);
    const auto coo = CooCodec().encode(t);
    EXPECT_GT(bitmap->bandwidthUtilization(),
              coo->bandwidthUtilization());
}

TEST(DenseFormatTest, AllCellsOnTheWire)
{
    const auto encoded = DenseCodec().encode(exampleTile());
    EXPECT_EQ(encoded->totalBytes(), 16u * 4u);
    EXPECT_EQ(encoded->usefulBytes(), 5u * 4u);
    EXPECT_DOUBLE_EQ(encoded->bandwidthUtilization(), 5.0 / 16.0);
}

TEST(EncodedTileTest, KindMismatchPanics)
{
    const auto encoded = CooCodec().encode(exampleTile());
    EXPECT_THROW(CsrCodec().decode(*encoded), PanicError);
}

TEST(RegistryTest, ParamsReachCodecs)
{
    FormatParams params;
    params.ellMinWidth = 3;
    const FormatRegistry registry(params);
    const auto &ell =
        static_cast<const EllCodec &>(registry.codec(FormatKind::ELL));
    EXPECT_EQ(ell.minWidth(), 3u);
    const auto &bcsr =
        static_cast<const BcsrCodec &>(registry.codec(FormatKind::BCSR));
    EXPECT_EQ(bcsr.blockSize(), 4u);
}

/** The FatalError message @p make raises, or "" when it returns. */
template <typename Make>
std::string
fatalMessage(Make make)
{
    try {
        make();
    } catch (const FatalError &e) {
        return e.what();
    }
    return "";
}

TEST(RegistryTest, ParamsViolationIsTheCodecsOwnCheck)
{
    // formatParamsViolation() is exactly the FatalError each codec's
    // constructor raises ("" when it builds), and the registry builds
    // exactly when every format admits the bundle.
    for (Index v = 0; v <= 16; ++v) {
        FormatParams params;
        params.bcsrBlock = v;
        params.ellMinWidth = v;
        params.ellCooWidth = v;
        SCOPED_TRACE("value " + std::to_string(v));
        EXPECT_EQ(formatParamsViolation(params, FormatKind::BCSR),
                  fatalMessage([v] { (void)BcsrCodec(v); }));
        EXPECT_EQ(formatParamsViolation(params, FormatKind::ELL),
                  fatalMessage([v] { (void)EllCodec(v); }));
        EXPECT_EQ(formatParamsViolation(params, FormatKind::ELLCOO),
                  fatalMessage([v] { (void)EllCooCodec(v); }));
        EXPECT_EQ(formatParamsViolation(params, FormatKind::Dense), "");
    }
    for (Index c = 0; c <= 16; ++c) {
        for (Index w = 0; w <= 16; ++w) {
            FormatParams params;
            params.sellSlice = c;
            params.sellCsWindow = w;
            SCOPED_TRACE("slice " + std::to_string(c) + " window " +
                         std::to_string(w));
            EXPECT_EQ(formatParamsViolation(params, FormatKind::SELL),
                      fatalMessage([c] { (void)SellCodec(c); }));
            EXPECT_EQ(formatParamsViolation(params, FormatKind::SELLCS),
                      fatalMessage([c, w] { (void)SellCsCodec(c, w); }));
            const bool rejected =
                !formatParamsViolation(params, FormatKind::SELL).empty() ||
                !formatParamsViolation(params, FormatKind::SELLCS).empty();
            EXPECT_EQ(rejected, !fatalMessage([&params] {
                                     (void)FormatRegistry(params);
                                 }).empty());
        }
    }
}

/** Each declared stream as "name/class/wire", in declaration order. */
std::vector<std::string>
streamLayout(const EncodedTile &encoded)
{
    std::vector<std::string> layout;
    for (const TypedStream &stream : encoded.typedStreams())
        layout.push_back(std::string(stream.name) + "/" +
                         streamClassName(stream.cls) + "/" +
                         std::to_string(stream.wire));
    return layout;
}

TEST(StreamDeclarationTest, WireSizesMatchPayloadsForEveryFormat)
{
    // Several arrays may share one first-stage wire (COO's tuples,
    // JDS's perm with jdPtr); the layouts are pinned so a change to
    // the AXI wiring or the second-stage classes is deliberate.
    const std::map<FormatKind, std::vector<std::string>> pinned = {
        {FormatKind::Dense, {"values/value/0"}},
        {FormatKind::CSR,
         {"values/value/0", "colInx/index/1", "offsets/offset/2"}},
        {FormatKind::BCSR,
         {"values/value/0", "colInx/index/1", "offsets/offset/2"}},
        {FormatKind::CSC,
         {"values/value/0", "rowInx/index/1", "offsets/offset/2"}},
        {FormatKind::COO,
         {"values/value/0", "rowInx/index/0", "colInx/index/0"}},
        {FormatKind::DOK,
         {"values/value/0", "rowInx/index/0", "colInx/index/0"}},
        {FormatKind::LIL, {"values/value/0", "rowInx/index/1"}},
        {FormatKind::ELL, {"values/value/0", "colInx/index/1"}},
        {FormatKind::SELL,
         {"values/value/0", "colInx/index/1", "widths/offset/1"}},
        {FormatKind::DIA, {"values/value/0", "headers/offset/0"}},
        {FormatKind::JDS,
         {"values/value/0", "colInx/index/1", "perm/index/2",
          "jdPtr/offset/2"}},
        {FormatKind::ELLCOO,
         {"values/value/0", "colInx/index/0", "overflowValues/value/1",
          "overflowRows/index/1", "overflowCols/index/1"}},
        {FormatKind::SELLCS,
         {"values/value/0", "colInx/index/1", "widths/offset/1",
          "perm/index/1"}},
        {FormatKind::BITMAP, {"values/value/0", "mask/index/1"}},
    };

    // Empty, sparse, diagonal and dense 8x8 tiles, plus random tiles
    // at p = 8, 16 and 32.
    std::vector<Tile> tiles;
    tiles.emplace_back(8);
    TileBuilder sparse(8);
    sparse.set(0, 0, 1);
    sparse.set(2, 5, 2);
    sparse.set(7, 7, 3);
    tiles.push_back(sparse.build());
    TileBuilder diag(8);
    for (Index i = 0; i < 8; ++i)
        diag.set(i, i, static_cast<Value>(i + 1));
    tiles.push_back(diag.build());
    TileBuilder dense(8);
    for (Index r = 0; r < 8; ++r)
        for (Index c = 0; c < 8; ++c)
            dense.set(r, c, static_cast<Value>(r * 8 + c + 1));
    tiles.push_back(dense.build());
    Rng rng(0x5EED5);
    for (Index p : {Index(8), Index(16), Index(32)}) {
        TileBuilder random(p);
        for (Index r = 0; r < p; ++r)
            for (Index c = 0; c < p; ++c)
                if (rng.chance(0.15))
                    random.set(r, c,
                               static_cast<Value>(rng.range(0.5, 1.5)));
        tiles.push_back(random.build());
    }

    const FormatRegistry &registry = defaultRegistry();
    ASSERT_EQ(pinned.size(), allFormats().size());
    for (FormatKind kind : allFormats()) {
        for (const Tile &tile : tiles) {
            SCOPED_TRACE(std::string(formatName(kind)) + " p=" +
                         std::to_string(tile.size()) + " nnz=" +
                         std::to_string(tile.nnz()));
            const auto encoded = registry.codec(kind).encode(tile);
            EXPECT_EQ(streamLayout(*encoded), pinned.at(kind));

            std::vector<Bytes> payloadWires;
            for (const TypedStream &stream : encoded->typedStreams()) {
                if (payloadWires.size() <= stream.wire)
                    payloadWires.resize(stream.wire + 1, 0);
                payloadWires[stream.wire] += stream.size();
            }
            const WireBytes sizes = encoded->wireBytes();
            EXPECT_EQ(std::vector<Bytes>(sizes.wires().begin(),
                                         sizes.wires().end()),
                      payloadWires);
        }
    }
}

/** A declaration whose writer emits one byte less than it declares. */
class ShortWriterTile : public EncodedTile
{
  public:
    ShortWriterTile() : EncodedTile(4, 2) {}

    FormatKind kind() const override { return FormatKind::Dense; }

    void
    declareStreams(StreamDeclarer &declare) const override
    {
        declare.image(StreamClass::Value, "values", 0, 8,
                      [](auto &out) { out.resize(7); });
    }
};

TEST(StreamDeclarationTest, WriterShortOfItsDeclaredSizePanics)
{
    const ShortWriterTile tile;
    // The size view never runs the writer; typedStreams() and the
    // second stage do, and both refuse the short image.
    EXPECT_EQ(tile.totalBytes(), 8u);
    EXPECT_THROW(tile.typedStreams(), PanicError);
    EXPECT_THROW(compressTile(tile), PanicError);
}

} // namespace
} // namespace copernicus
