/**
 * @file
 * Store subsystem tests: the .cbm container (writer, mmap reader and
 * its payload checks, inspector), both partitioners against an
 * independent reference, the streaming pass plan's memory bound, and
 * the sweep journal's exact checkpoint/resume semantics.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "common/status.hh"
#include "core/study.hh"
#include "formats/registry.hh"
#include "matrix/partitioner.hh"
#include "store/container.hh"
#include "store/stream_partitioner.hh"
#include "store/sweep_journal.hh"
#include "workloads/generators.hh"
#include "workloads/suite_catalog.hh"

namespace copernicus {
namespace {

std::string
tempPath(const std::string &name)
{
    return ::testing::TempDir() + name;
}

TripletMatrix
smallRandom(Index dim, double density, std::uint64_t seed)
{
    Rng rng(seed);
    TripletMatrix m = randomMatrix(dim, density, rng);
    m.finalize();
    return m;
}

std::string
readFileBytes(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFileBytes(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

// ---------------------------------------------------------------- CBM

TEST(CbmContainer, RoundTripPreservesMatrixAndIdentity)
{
    const TripletMatrix m = smallRandom(64, 0.1, 0xA11CE);
    const std::string path = tempPath("roundtrip.cbm");
    const std::uint64_t hash = writeCbmFile(path, m, /*epoch=*/7);

    const CbmReader reader(path);
    EXPECT_EQ(reader.rows(), m.rows());
    EXPECT_EQ(reader.cols(), m.cols());
    EXPECT_EQ(reader.nnz(), m.nnz());
    EXPECT_EQ(reader.epoch(), 7u);
    EXPECT_EQ(reader.contentHash(), hash);
    EXPECT_EQ(reader.contentHash(), contentHashOf(m));

    const TripletMatrix back = reader.toTripletMatrix();
    EXPECT_TRUE(back == m);
    std::remove(path.c_str());
}

TEST(CbmContainer, MultiChunkDirectoryIsMonotone)
{
    const TripletMatrix m = smallRandom(96, 0.2, 0xBEEF);
    ASSERT_GT(m.nnz(), 600u);
    const std::string path = tempPath("chunks.cbm");
    writeCbmFile(path, m, 1, /*chunkTargetNnz=*/100);

    const CbmReader reader(path);
    EXPECT_EQ(reader.chunkTargetNnz(), 100u);
    EXPECT_EQ(reader.chunkCount(), (m.nnz() + 99) / 100);
    std::uint64_t sum = 0;
    Index prevLast = 0;
    for (std::size_t i = 0; i < reader.chunks().size(); ++i) {
        const CbmChunkInfo &c = reader.chunks()[i];
        if (i > 0) {
            EXPECT_GE(c.firstRow, prevLast);
        }
        EXPECT_LT(c.lastRow, m.rows());
        prevLast = c.lastRow;
        sum += c.nnz;
    }
    EXPECT_EQ(sum, m.nnz());

    // scan() yields the canonical stream in order.
    std::size_t i = 0;
    reader.scan([&](const Triplet &t) {
        ASSERT_LT(i, m.nnz());
        EXPECT_TRUE(t == m.triplets()[i]);
        ++i;
    });
    EXPECT_EQ(i, m.nnz());
    std::remove(path.c_str());
}

TEST(CbmContainer, EmptyMatrixRoundTrips)
{
    TripletMatrix empty(8, 8);
    empty.finalize();
    const std::string path = tempPath("empty.cbm");
    writeCbmFile(path, empty, 1);
    EXPECT_TRUE(inspectCbmFile(path).empty());
    const CbmReader reader(path);
    EXPECT_EQ(reader.nnz(), 0u);
    EXPECT_EQ(reader.chunkCount(), 0u);
    std::size_t calls = 0;
    reader.scan([&](const Triplet &) { ++calls; });
    EXPECT_EQ(calls, 0u);
    std::remove(path.c_str());
}

TEST(CbmContainer, WriterRejectsDisorderZeroAndRange)
{
    const std::string path = tempPath("writer.cbm");
    {
        CbmWriter w(path, 4, 4, 1);
        w.append({1, 1, 1.0f});
        EXPECT_THROW(w.append({1, 1, 2.0f}), FatalError); // duplicate
        EXPECT_THROW(w.append({0, 0, 1.0f}), FatalError); // backwards
        EXPECT_THROW(w.append({1, 2, 0.0f}), FatalError); // zero
        EXPECT_THROW(w.append({1, 9, 1.0f}), FatalError); // range
    }
    std::remove(path.c_str());
}

TEST(CbmContainer, InspectorFlagsEachDefectClass)
{
    const TripletMatrix m = smallRandom(64, 0.15, 0xD00D);
    const std::string path = tempPath("defects.cbm");
    writeCbmFile(path, m, 1, /*chunkTargetNnz=*/64);
    const std::string clean = readFileBytes(path);
    ASSERT_TRUE(inspectCbmFile(path).empty());

    const auto hasKind = [](const std::vector<CbmIssue> &issues,
                            CbmIssueKind kind) {
        for (const CbmIssue &issue : issues)
            if (issue.kind == kind)
                return true;
        return false;
    };

    // Header: corrupt the version field.
    std::string bad = clean;
    bad[4] = static_cast<char>(bad[4] ^ 0x4);
    writeFileBytes(path, bad);
    EXPECT_TRUE(hasKind(inspectCbmFile(path), CbmIssueKind::Header));
    EXPECT_THROW(CbmReader{path}, FatalError);

    // Chunks: swap the first two directory entries.
    bad = clean;
    const auto *header =
        reinterpret_cast<const CbmHeader *>(clean.data());
    ASSERT_GE(header->chunkCount, 2u);
    const auto dir = static_cast<std::size_t>(header->directoryOffset);
    for (std::size_t i = 0; i < sizeof(CbmChunkInfo); ++i)
        std::swap(bad[dir + i], bad[dir + sizeof(CbmChunkInfo) + i]);
    writeFileBytes(path, bad);
    EXPECT_TRUE(hasKind(inspectCbmFile(path), CbmIssueKind::Chunks));

    // Hash: flip a payload mantissa bit; shallow checks stay clean.
    bad = clean;
    bad[sizeof(CbmHeader) + 8] =
        static_cast<char>(bad[sizeof(CbmHeader) + 8] ^ 0x1);
    writeFileBytes(path, bad);
    EXPECT_TRUE(hasKind(inspectCbmFile(path, true),
                        CbmIssueKind::Hash));
    EXPECT_TRUE(inspectCbmFile(path, /*deep=*/false).empty());

    // Truncation: chop the directory off.
    writeFileBytes(path, clean.substr(0, clean.size() - 10));
    EXPECT_FALSE(inspectCbmFile(path).empty());

    // Not a container at all.
    writeFileBytes(path, "definitely not a cbm file");
    EXPECT_TRUE(hasKind(inspectCbmFile(path), CbmIssueKind::Header));

    // Missing file reports rather than throws.
    std::remove(path.c_str());
    EXPECT_FALSE(inspectCbmFile(path).empty());
}

TEST(CbmContainer, ScanRejectsCorruptPayload)
{
    // Opening checks only the header and directory, so each patched
    // payload below opens cleanly; scan() must then refuse it before
    // the partitioner indexes with a bad row or builds a tile from an
    // unsorted run.
    Rng rng(0xBAD);
    const TripletMatrix m = bandMatrix(64, 3, rng);
    const std::string path = tempPath("corrupt_payload.cbm");
    writeCbmFile(path, m, 1, /*chunkTargetNnz=*/16);
    const std::string clean = readFileBytes(path);

    const std::size_t at = 40;
    const Triplet prev = m.triplets()[at - 1];
    const Triplet orig = m.triplets()[at];
    const Index stripFirstRow = orig.row / 8 * 8;
    // Moving triplet `at` to its strip's first row puts it behind its
    // predecessor without leaving the strip.
    ASSERT_EQ(prev.row / 8, orig.row / 8);
    ASSERT_GT(prev.row, stripFirstRow);

    const std::vector<std::pair<std::string, Triplet>> patches = {
        {"row = rows", {m.rows(), orig.col, orig.value}},
        {"col = cols", {orig.row, m.cols(), orig.value}},
        {"order break inside one strip",
         {stripFirstRow, orig.col, orig.value}},
        {"zero value", {orig.row, orig.col, 0.0f}},
    };
    for (const auto &[name, patched] : patches) {
        SCOPED_TRACE(name);
        std::string bad = clean;
        std::memcpy(&bad[sizeof(CbmHeader) + at * sizeof(Triplet)],
                    &patched, sizeof(Triplet));
        writeFileBytes(path, bad);
        EXPECT_FALSE(inspectCbmFile(path).empty());

        const CbmReader reader(path);
        StreamPartitionOptions opts;
        opts.maxBufferedNnz = 32;
        EXPECT_THROW(
            forEachTileStreaming(reader, 8, opts, [](Tile &&) {}),
            FatalError);
        EXPECT_THROW(reader.toTripletMatrix(), FatalError);
    }
    std::remove(path.c_str());
}

// -------------------------------------------- streaming partitioner

void
expectTilesEqual(const std::vector<Tile> &want,
                 const std::vector<Tile> &got)
{
    ASSERT_EQ(want.size(), got.size());
    for (std::size_t i = 0; i < want.size(); ++i) {
        const Tile &a = want[i];
        const Tile &b = got[i];
        ASSERT_EQ(a.tileRow(), b.tileRow()) << "tile " << i;
        ASSERT_EQ(a.tileCol(), b.tileCol()) << "tile " << i;
        ASSERT_EQ(a.size(), b.size()) << "tile " << i;
        ASSERT_EQ(a.nonzeros().size(), b.nonzeros().size())
            << "tile " << i;
        ASSERT_EQ(std::memcmp(a.nonzeros().data(), b.nonzeros().data(),
                              a.nonzeros().size() * sizeof(TileNonzero)),
                  0)
            << "tile " << i << " non-zero stream differs";
    }
}

/** forEachTileStreaming's tiles, in emission order. */
std::vector<Tile>
streamTiles(const TripletSource &source, Index p, std::uint64_t budget,
            StreamPartitionStats &stats)
{
    StreamPartitionOptions opts;
    opts.maxBufferedNnz = budget;
    std::vector<Tile> tiles;
    stats = forEachTileStreaming(source, p, opts, [&](Tile &&tile) {
        tiles.push_back(std::move(tile));
    });
    return tiles;
}

/**
 * Reference partitioner sharing no code with the scatter core: every
 * triplet is written through the TileBuilder of its tile, the builders
 * kept in a std::map keyed by (tileRow, tileCol).
 */
std::vector<Tile>
referenceTiles(const TripletMatrix &m, Index p)
{
    std::map<std::pair<Index, Index>, TileBuilder> builders;
    for (const Triplet &t : m.triplets()) {
        const Index tileRow = t.row / p;
        const Index tileCol = t.col / p;
        builders.try_emplace({tileRow, tileCol}, p, tileRow, tileCol)
            .first->second.set(t.row % p, t.col % p, t.value);
    }
    std::vector<Tile> tiles;
    for (auto &entry : builders)
        tiles.push_back(entry.second.build());
    return tiles;
}

TEST(StreamPartitioner, MatchesInMemoryAcrossShapes)
{
    std::vector<TripletMatrix> matrices;
    matrices.push_back(smallRandom(256, 0.0005, 1));
    matrices.push_back(smallRandom(256, 0.01, 2));
    matrices.push_back(smallRandom(256, 0.2, 3));
    {
        Rng rng(4);
        TripletMatrix band = bandMatrix(256, 8, rng);
        band.finalize();
        matrices.push_back(std::move(band));
    }
    for (const TripletMatrix &m : matrices) {
        const TripletMatrixSource source(m);
        for (Index p : {8u, 16u, 32u}) {
            const Partitioning expect = partition(m, p);
            StreamPartitionStats stats;
            // A budget of 512 forces several passes.
            expectTilesEqual(expect.tiles,
                             streamTiles(source, p, 512, stats));
            EXPECT_EQ(stats.nonZeroTiles, expect.tiles.size());
            EXPECT_EQ(stats.zeroTiles, expect.zeroTiles);
            EXPECT_EQ(stats.sourceScans, stats.passes + 1);
        }
    }
}

/**
 * Both partitioners against the reference, tile by tile, over the
 * shapes that take different branches of the scatter: no tiles at all,
 * padded edge tiles on both axes, random and banded fill, and a
 * 1.56e8-tile grid past the dense count's 2^24 limit, so the hashed
 * count runs.
 */
TEST(StreamPartitioner, BothPathsMatchReferenceAcrossShapes)
{
    struct Shape
    {
        std::string name;
        TripletMatrix matrix;
        std::vector<Index> sizes;
    };
    std::vector<Shape> shapes;
    {
        TripletMatrix empty(40, 40);
        empty.finalize();
        shapes.push_back({"empty", std::move(empty), {8, 16}});
    }
    {
        Rng rng(11);
        shapes.push_back({"rectangular 100x37",
                          prunedLayer(100, 37, 0.1, rng),
                          {8, 16, 32}});
    }
    shapes.push_back(
        {"random", smallRandom(200, 0.02, 12), {8, 16, 32}});
    {
        Rng rng(13);
        shapes.push_back(
            {"band", bandMatrix(200, 9, rng), {8, 16, 32}});
    }
    {
        Rng rng(14);
        TripletMatrix scattered(100000, 100000);
        for (int i = 0; i < 300; ++i)
            scattered.add(static_cast<Index>(rng.below(100000)),
                          static_cast<Index>(rng.below(100000)),
                          static_cast<Value>(1 + rng.below(9)));
        scattered.finalize();
        shapes.push_back({"hypersparse 100000x100000",
                          std::move(scattered),
                          {8}});
    }

    for (const Shape &shape : shapes) {
        const TripletMatrix &m = shape.matrix;
        const TripletMatrixSource source(m);
        for (Index p : shape.sizes) {
            SCOPED_TRACE(shape.name + " at p " + std::to_string(p));
            const std::vector<Tile> want = referenceTiles(m, p);
            const Partitioning inMemory = partition(m, p);
            expectTilesEqual(want, inMemory.tiles);
            EXPECT_EQ(inMemory.totalTiles(),
                      std::uint64_t(inMemory.gridRows) *
                          inMemory.gridCols);
            for (std::uint64_t budget : {std::uint64_t(1),
                                         std::uint64_t(64),
                                         UINT64_MAX}) {
                SCOPED_TRACE("budget " + std::to_string(budget));
                StreamPartitionStats stats;
                expectTilesEqual(want,
                                 streamTiles(source, p, budget, stats));
                EXPECT_EQ(stats.zeroTiles, inMemory.zeroTiles);
            }
        }
    }
}

/**
 * The pass plan is the one piece of logic the streaming path owns.
 * DESIGN §12 bounds one pass's buffer by max(budget, heaviest strip)
 * and the source scans by passes + 1.
 */
TEST(StreamPartitioner, PassPlanHonoursTheBufferBound)
{
    // 200 x 120 at p = 8: 25 strips. 16 hold entries, in runs split by
    // empty strips, and strip 10 is heavier than the small budgets.
    const Index p = 8;
    const std::vector<Index> filled = {0,  1,  2,  5,  6,  9,  10, 11,
                                       12, 15, 18, 19, 20, 22, 23, 24};
    TripletMatrix m(200, 120);
    for (Index strip : filled) {
        const Index count = strip == 10 ? 273 : 12 + 5 * (strip % 5);
        for (Index k = 0; k < count; ++k)
            m.add(strip * p + k % p, (k / p * 7 + strip) % 120,
                  static_cast<Value>(1 + k));
    }
    m.finalize();

    std::vector<std::uint64_t> stripNnz(25, 0);
    for (const Triplet &t : m.triplets())
        ++stripNnz[t.row / p];
    const std::uint64_t heaviest =
        *std::max_element(stripNnz.begin(), stripNnz.end());
    ASSERT_EQ(heaviest, 273u);
    ASSERT_GT(m.nnz(), 512u); // so a budget of 512 still splits
    ASSERT_EQ(std::count_if(stripNnz.begin(), stripNnz.end(),
                            [](std::uint64_t n) { return n != 0; }),
              16);

    const TripletMatrixSource source(m);
    const std::vector<Tile> want = referenceTiles(m, p);
    for (std::uint64_t budget :
         {std::uint64_t(1), std::uint64_t(64), std::uint64_t(512),
          std::uint64_t(m.nnz()), UINT64_MAX}) {
        SCOPED_TRACE("budget " + std::to_string(budget));
        StreamPartitionStats stats;
        expectTilesEqual(want, streamTiles(source, p, budget, stats));
        EXPECT_LE(stats.peakBufferedNnz, std::max(budget, heaviest));
        EXPECT_EQ(stats.sourceScans, stats.passes + 1);
        if (budget == 1) {
            EXPECT_EQ(stats.passes, filled.size());
        }
        if (budget >= m.nnz()) {
            EXPECT_EQ(stats.passes, 1u);
        }
    }
}

TEST(StreamPartitioner, OneNnzBudgetStillExact)
{
    const TripletMatrix m = smallRandom(64, 0.1, 99);
    const TripletMatrixSource source(m);
    StreamPartitionStats stats;
    // Every strip is its own oversized pass.
    expectTilesEqual(partition(m, 8).tiles,
                     streamTiles(source, 8, 1, stats));
    EXPECT_GT(stats.passes, 1u);
}

TEST(StreamPartitioner, EmptyMatrixYieldsNoTiles)
{
    TripletMatrix empty(32, 32);
    empty.finalize();
    const TripletMatrixSource source(empty);
    StreamPartitionStats stats;
    EXPECT_TRUE(streamTiles(source, 8, 64, stats).empty());
    EXPECT_EQ(stats.zeroTiles, 16u);
    EXPECT_EQ(stats.passes, 0u);
}

/**
 * The golden roundtrip the store layer exists for: every catalog
 * workload, written to a container, reopened by mmap, partitioned in
 * bounded-memory passes — and the result must be byte-identical to
 * the in-memory path, down to the encoded streams every codec
 * produces (the same contract the PR-5 parity suite pins for the
 * encode hot path).
 */
TEST(StreamPartitioner, GoldenRoundtripOverCatalog)
{
    const FormatRegistry &registry = defaultRegistry();
    for (const SuiteMatrixInfo &entry : suiteCatalog()) {
        SuiteMatrixInfo scaled = entry;
        scaled.surrogateDim = 128; // keep 20 matrices CI-friendly
        TripletMatrix m = scaled.generate(0xC0FFEE);
        m.finalize();

        const std::string path = tempPath("golden_" + entry.id +
                                          ".cbm");
        writeCbmFile(path, m, 1, /*chunkTargetNnz=*/1000);
        const CbmReader reader(path);

        const Partitioning expect = partition(m, 16);
        StreamPartitionStats stats;
        // A budget of 700 makes several passes over the mmap.
        const std::vector<Tile> got = streamTiles(reader, 16, 700, stats);
        {
            SCOPED_TRACE("catalog " + entry.id);
            expectTilesEqual(expect.tiles, got);
            EXPECT_EQ(stats.zeroTiles, expect.zeroTiles);
        }

        // Same tiles in, same encoded bytes out, format by format.
        for (std::size_t i = 0; i < expect.tiles.size(); ++i) {
            for (FormatKind kind : allFormats()) {
                const auto a =
                    registry.codec(kind).encode(expect.tiles[i]);
                const auto b = registry.codec(kind).encode(got[i]);
                ASSERT_EQ(a->streams(), b->streams())
                    << entry.id << " tile " << i << " format "
                    << formatName(kind);
            }
        }
        std::remove(path.c_str());
    }
}

// ------------------------------------------------------ sweep journal

StudyRow
sampleRow(const std::string &workload, FormatKind format, Index p)
{
    StudyRow row;
    row.workload = workload;
    row.format = format;
    row.partitionSize = p;
    row.meanSigma = 0.1; // not exactly representable: exactness test
    row.totalCycles = 0xFFFFFFFFFFFFFFFFull; // past double precision
    row.seconds = 1.0 / 3.0;
    row.memoryCycles = (1ull << 53) + 1; // would clip as a double
    row.computeCycles = 12345678901234567ull;
    row.balanceRatio = 2.5;
    row.throughput = 9.87654321e9;
    row.bandwidthUtilization = 0.333333333333333314829616256247;
    row.totalBytes = 0xDEADBEEFCAFEull;
    row.partitions = 42;
    row.resources.bram18k = 18.5;
    row.resources.ffK = 0.07;
    row.resources.lutK = 123.456;
    row.resources.calibrated = true;
    row.power.logicW = 0.25;
    row.power.bramW = 1e-3;
    row.power.signalsW = 0.125;
    row.power.staticW = 0.6;
    return row;
}

void
expectRowsEqual(const StudyRow &a, const StudyRow &b)
{
    EXPECT_EQ(a.workload, b.workload);
    EXPECT_EQ(a.format, b.format);
    EXPECT_EQ(a.partitionSize, b.partitionSize);
    EXPECT_EQ(a.meanSigma, b.meanSigma);
    EXPECT_EQ(a.totalCycles, b.totalCycles);
    EXPECT_EQ(a.seconds, b.seconds);
    EXPECT_EQ(a.memoryCycles, b.memoryCycles);
    EXPECT_EQ(a.computeCycles, b.computeCycles);
    EXPECT_EQ(a.balanceRatio, b.balanceRatio);
    EXPECT_EQ(a.throughput, b.throughput);
    EXPECT_EQ(a.bandwidthUtilization, b.bandwidthUtilization);
    EXPECT_EQ(a.totalBytes, b.totalBytes);
    EXPECT_EQ(a.partitions, b.partitions);
    EXPECT_EQ(a.resources.bram18k, b.resources.bram18k);
    EXPECT_EQ(a.resources.ffK, b.resources.ffK);
    EXPECT_EQ(a.resources.lutK, b.resources.lutK);
    EXPECT_EQ(a.resources.calibrated, b.resources.calibrated);
    EXPECT_EQ(a.power.logicW, b.power.logicW);
    EXPECT_EQ(a.power.bramW, b.power.bramW);
    EXPECT_EQ(a.power.signalsW, b.power.signalsW);
    EXPECT_EQ(a.power.staticW, b.power.staticW);
}

TEST(SweepJournal, RecordsReloadExactly)
{
    const std::string path = tempPath("journal.ndjson");
    std::remove(path.c_str());
    JournalIdentity id{11, 22, 33};

    const StudyRow r1 = sampleRow("w", FormatKind::CSR, 8);
    const StudyRow r2 = sampleRow("w", FormatKind::COO, 16);
    {
        SweepJournal journal(path, id);
        EXPECT_EQ(journal.resumedCells(), 0u);
        EXPECT_EQ(journal.completed("w", FormatKind::CSR, 8), nullptr);
        journal.record(r1);
        journal.record(r2);
    }
    {
        SweepJournal journal(path, id);
        EXPECT_EQ(journal.resumedCells(), 2u);
        const StudyRow *got = journal.completed("w", FormatKind::CSR, 8);
        ASSERT_NE(got, nullptr);
        expectRowsEqual(*got, r1);
        got = journal.completed("w", FormatKind::COO, 16);
        ASSERT_NE(got, nullptr);
        expectRowsEqual(*got, r2);
        EXPECT_EQ(journal.completed("w", FormatKind::COO, 8), nullptr);
    }
    std::remove(path.c_str());
}

TEST(SweepJournal, RejectsStaleIdentityNamingComponent)
{
    const std::string path = tempPath("stale.ndjson");
    std::remove(path.c_str());
    { SweepJournal journal(path, {1, 2, 3}); }

    const auto expectStale = [&](const JournalIdentity &id,
                                 const std::string &component) {
        try {
            SweepJournal journal(path, id);
            FAIL() << "stale journal accepted for " << component;
        } catch (const FatalError &err) {
            const std::string what = err.what();
            EXPECT_NE(what.find("stale"), std::string::npos) << what;
            EXPECT_NE(what.find(component), std::string::npos) << what;
        }
    };
    expectStale({9, 2, 3}, "matrix content hash");
    expectStale({1, 9, 3}, "container epoch");
    expectStale({1, 2, 9}, "sweep config");
    std::remove(path.c_str());
}

TEST(SweepJournal, ToleratesTornTrailingLine)
{
    const std::string path = tempPath("torn.ndjson");
    std::remove(path.c_str());
    JournalIdentity id{5, 6, 7};
    {
        SweepJournal journal(path, id);
        journal.record(sampleRow("w", FormatKind::CSR, 8));
    }
    {
        // A SIGKILL mid-write leaves half a record and no newline.
        std::ofstream out(path, std::ios::app | std::ios::binary);
        out << "{\"kind\":\"cell\",\"workload\":\"w\",\"for";
    }
    {
        SweepJournal journal(path, id);
        EXPECT_EQ(journal.resumedCells(), 1u);
        journal.record(sampleRow("w", FormatKind::COO, 8));
    }
    {
        SweepJournal journal(path, id);
        EXPECT_EQ(journal.resumedCells(), 2u);
    }
    std::remove(path.c_str());
}

/** A sweep over @p sizes x @p formats at default pricing. */
StudyConfig
sweepShape(std::vector<Index> sizes, std::vector<FormatKind> formats)
{
    StudyConfig cfg;
    cfg.partitionSizes = std::move(sizes);
    cfg.formats = std::move(formats);
    return cfg;
}

TEST(SweepJournal, ConfigHashSeesOrderAndContent)
{
    const std::uint64_t base = sweepConfigHash(
        sweepShape({8, 16}, {FormatKind::CSR, FormatKind::COO}));
    EXPECT_NE(base, sweepConfigHash(sweepShape(
                        {16, 8}, {FormatKind::CSR, FormatKind::COO})));
    EXPECT_NE(base, sweepConfigHash(sweepShape(
                        {8, 16}, {FormatKind::COO, FormatKind::CSR})));
    EXPECT_NE(base, sweepConfigHash(sweepShape(
                        {8}, {FormatKind::CSR, FormatKind::COO})));
    EXPECT_EQ(base, sweepConfigHash(sweepShape(
                        {8, 16}, {FormatKind::CSR, FormatKind::COO})));

    const std::uint64_t ws = workloadSetHash({{"a", 1}, {"b", 2}});
    EXPECT_NE(ws, workloadSetHash({{"b", 2}, {"a", 1}}));
    EXPECT_NE(ws, workloadSetHash({{"a", 1}}));
    EXPECT_EQ(ws, workloadSetHash({{"a", 1}, {"b", 2}}));
}

/**
 * A journal priced under one codec or platform configuration is refused
 * under another, so no row resumes with figures the current
 * configuration would not give.
 */
TEST(SweepJournal, RefusesAnotherPricingConfigAsStale)
{
    const std::string path = tempPath("pricing.ndjson");
    std::remove(path.c_str());
    const StudyConfig base;
    { SweepJournal journal(path, {1, 2, sweepConfigHash(base)}); }

    const auto expectRefused = [&](const std::string &what, auto edit) {
        StudyConfig cfg = base;
        edit(cfg);
        try {
            SweepJournal journal(path, {1, 2, sweepConfigHash(cfg)});
            ADD_FAILURE() << "journal resumed under a changed " << what;
        } catch (const FatalError &err) {
            const std::string message = err.what();
            EXPECT_NE(message.find("stale"), std::string::npos) << what;
            EXPECT_NE(message.find("sweep config"), std::string::npos)
                << what;
        }
    };
    expectRefused("bcsrBlock",
                  [](StudyConfig &c) { c.formatParams.bcsrBlock = 8; });
    expectRefused("ellMinWidth",
                  [](StudyConfig &c) { c.formatParams.ellMinWidth = 16; });
    expectRefused("sellSlice",
                  [](StudyConfig &c) { c.formatParams.sellSlice = 8; });
    expectRefused("ellCooWidth",
                  [](StudyConfig &c) { c.formatParams.ellCooWidth = 4; });
    expectRefused("sellCsWindow",
                  [](StudyConfig &c) { c.formatParams.sellCsWindow = 16; });
    expectRefused("secondStageCompression", [](StudyConfig &c) {
        c.hls.secondStageCompression = true;
    });
    expectRefused("streamVectorOperand",
                  [](StudyConfig &c) { c.hls.streamVectorOperand = true; });
    expectRefused("clockMhz",
                  [](StudyConfig &c) { c.hls.clockMhz = 200.0; });
    expectRefused("dram.tCl", [](StudyConfig &c) { c.hls.dram.tCl = 12; });

    // Execution settings price nothing: the journal still opens.
    StudyConfig parallel = base;
    parallel.jobs = 4;
    {
        SweepJournal journal(path, {1, 2, sweepConfigHash(parallel)});
        EXPECT_EQ(journal.resumedCells(), 0u);
    }
    std::remove(path.c_str());
}

/** Cancel a sweep partway, then resume it: output must be identical. */
TEST(SweepJournal, InterruptedStudyResumesByteIdentical)
{
    StudyConfig cfg;
    cfg.partitionSizes = {8, 16};
    cfg.formats = {FormatKind::CSR, FormatKind::COO,
                   FormatKind::Dense};
    cfg.jobs = 1;

    const auto addWorkloads = [](Study &study) {
        study.addWorkload("rand", smallRandom(48, 0.1, 0x5EED));
        study.addWorkload("rand2", smallRandom(48, 0.02, 0x5EED1));
    };

    // Uninterrupted baseline.
    std::string baseline;
    {
        Study study(cfg);
        addWorkloads(study);
        std::ostringstream out;
        study.run().writeCsv(out);
        baseline = out.str();
    }

    const std::string path = tempPath("resume.ndjson");
    std::remove(path.c_str());
    const JournalIdentity id{1234, 0, sweepConfigHash(cfg)};

    // First attempt: cancel after a few design points complete.
    {
        StudyConfig interrupted = cfg;
        int budget = 5;
        interrupted.cancelCheck = [&budget] { return --budget < 0; };
        interrupted.journal =
            std::make_shared<SweepJournal>(path, id);
        Study study(interrupted);
        addWorkloads(study);
        EXPECT_THROW(study.run(), CancelledError);
    }

    // Resume: completed cells come from the journal, the rest run.
    {
        StudyConfig resumed = cfg;
        resumed.journal = std::make_shared<SweepJournal>(path, id);
        const std::size_t restored = resumed.journal->resumedCells();
        EXPECT_GT(restored, 0u);
        EXPECT_LT(restored, 12u); // 2 workloads x 2 p x 3 formats
        Study study(resumed);
        addWorkloads(study);
        std::ostringstream out;
        study.run().writeCsv(out);
        EXPECT_EQ(out.str(), baseline);
    }

    // A third run resumes everything and still matches.
    {
        StudyConfig resumed = cfg;
        resumed.journal = std::make_shared<SweepJournal>(path, id);
        EXPECT_EQ(resumed.journal->resumedCells(), 12u);
        Study study(resumed);
        addWorkloads(study);
        std::ostringstream out;
        study.run().writeCsv(out);
        EXPECT_EQ(out.str(), baseline);
    }
    std::remove(path.c_str());
}

TEST(Study, WorkloadSetIdentityFollowsRegistration)
{
    StudyConfig cfg;
    Study a(cfg);
    a.addWorkload("x", smallRandom(32, 0.1, 1));
    Study b(cfg);
    b.addWorkload("x", smallRandom(32, 0.1, 1));
    EXPECT_EQ(a.workloadSetIdentity(), b.workloadSetIdentity());

    Study c(cfg);
    c.addWorkload("y", smallRandom(32, 0.1, 1));
    EXPECT_NE(a.workloadSetIdentity(), c.workloadSetIdentity());

    Study d(cfg);
    d.addWorkload("x", smallRandom(32, 0.1, 2));
    EXPECT_NE(a.workloadSetIdentity(), d.workloadSetIdentity());
}

} // namespace
} // namespace copernicus
