/**
 * @file
 * ingest_cbm: the "convert and sweep real matrices" path.
 *
 * Set-up writes a few-million-nnz MatrixMarket file, one copy per
 * core. One timed pass then parses a copy (readMatrixMarketFile),
 * writes a .cbm container from the parsed matrix (as mtx2cbm does),
 * opens the container with CbmReader and streams every p = 1024 tile
 * out of it with forEachTileStreaming. The values are small integers, so the text
 * round trip is exact and every check compares against the generated
 * matrix, not against the program's own parse: the container's content
 * hash, and the non-zero count and checksum of the streamed tiles.
 *
 * Untraced runs convert in rounds of one pass per core, all at once, as
 * a batch conversion of a matrix collection runs. A single-threaded
 * pass would measure the one core it lands on, and the cores of a
 * shared host run at unequal, shifting speeds. Traced runs make serial
 * passes, because the span ledger is single-threaded.
 *
 * Every set-up and every pass writes a file of its own, and all of
 * them are removed only when the run ends: truncating or unlinking a
 * file whose pages are still being written back waits for the disk,
 * which would put device latency into the timings.
 */

#include <filesystem>
#include <functional>
#include <optional>
#include <string>
#include <thread>
#include <vector>

#include "common.hh"

#include "common/rng.hh"
#include "matrix/mm_io.hh"
#include "store/container.hh"
#include "store/stream_partitioner.hh"
#include "workloads/generators.hh"

using namespace copernicus;

namespace perfbench {

namespace {

constexpr Index ingestDim = 200000;
constexpr Index ingestBand = 8;
constexpr Index ingestTile = 1024;
/** Pass budget small enough that the streaming partitioner makes
 *  several passes over the container. */
constexpr std::uint64_t ingestPassBudget = 1u << 19;

/** Order-independent checksum term of one non-zero. */
std::uint64_t
entryHash(Index row, Index col, Value value)
{
    std::uint32_t bits;
    std::memcpy(&bits, &value, sizeof(bits));
    std::uint64_t state = (std::uint64_t(row) << 32 | col) ^
                          (std::uint64_t(bits) * 0x9e3779b97f4a7c15ULL);
    return splitMix64(state);
}

/** What the streamed tiles and the container must reproduce. */
struct Expected
{
    std::uint64_t nnz = 0;
    std::uint64_t contentHash = 0;
    std::uint64_t checksum = 0;
};

/** Generate the matrix from @p seed and write it to @p mtxPath. */
Expected
writeInput(std::uint64_t seed, const std::string &mtxPath)
{
    Rng rng(seed);
    const TripletMatrix band = bandMatrix(ingestDim, ingestBand, rng, 0.9);
    TripletMatrix matrix(ingestDim, ingestDim);
    matrix.reserve(band.nnz());
    Expected expected;
    for (const Triplet &t : band.triplets()) {
        const auto value = static_cast<Value>(
            1 + (t.row * 31u + t.col * 17u + seed) % 97u);
        matrix.add(t.row, t.col, value);
        expected.checksum += entryHash(t.row, t.col, value);
    }
    matrix.finalize();
    expected.nnz = matrix.nnz();
    expected.contentHash = contentHashOf(matrix);
    writeMatrixMarketFile(mtxPath, matrix);
    return expected;
}

struct PassResult
{
    double wall = 0;
    bool ok = false;
    std::string what;
    StreamPartitionStats stats;
};

/** One timed parse + write + open + streaming-partition pass. */
PassResult
ingestPass(const std::string &mtxPath, const std::string &cbmPath,
           const Expected &expected, Ledger &ledger)
{
    PassResult out;
    const Clock::time_point start = Clock::now();
    const Ledger::Scope root(ledger, "ingest.pass");
    std::uint64_t written = 0;
    {
        std::optional<TripletMatrix> parsed;
        {
            const Ledger::Scope span(ledger, "matrix.mm_parse");
            parsed.emplace(readMatrixMarketFile(mtxPath));
        }
        const Ledger::Scope span(ledger, "store.cbm_write");
        written = writeCbmFile(cbmPath, *parsed, 1);
    }
    std::optional<CbmReader> reader;
    {
        const Ledger::Scope span(ledger, "store.cbm_open");
        reader.emplace(cbmPath);
    }
    std::uint64_t nnz = 0;
    std::uint64_t checksum = 0;
    std::size_t tiles = 0;
    {
        const Ledger::Scope span(ledger, "store.stream_partition");
        StreamPartitionOptions options;
        options.maxBufferedNnz = ingestPassBudget;
        out.stats = forEachTileStreaming(
            *reader, ingestTile, options, [&](Tile &&tile) {
                ++tiles;
                const Index row0 = tile.tileRow() * ingestTile;
                const Index col0 = tile.tileCol() * ingestTile;
                for (const TileNonzero &e : tile.nonzeros()) {
                    checksum +=
                        entryHash(row0 + e.row, col0 + e.col, e.value);
                    ++nnz;
                }
            });
    }
    out.wall = secondsSince(start);

    if (written != expected.contentHash ||
        reader->contentHash() != expected.contentHash)
        out.what = "container content hash differs from the matrix's";
    else if (nnz != expected.nnz || reader->nnz() != expected.nnz)
        out.what = "streamed tiles hold " + std::to_string(nnz) +
                   " non-zeros, expected " + std::to_string(expected.nnz);
    else if (checksum != expected.checksum)
        out.what = "streamed tile checksum differs from the matrix's";
    else if (tiles != out.stats.nonZeroTiles)
        out.what = "tile count differs from the partitioner's report";
    else
        out.ok = true;
    return out;
}

/** Untraced: rounds of one conversion per core, all at once. */
void
untracedRounds(const Options &opts, Report &report,
               const std::function<std::string(std::size_t)> &cbmPath,
               const std::function<void()> &setUp,
               const std::vector<double> &setupTimes,
               const Expected &expected,
               const std::vector<std::string> &mtxPaths)
{
    const std::size_t lanes = mtxPaths.size();
    Ledger untraced(false);
    std::vector<double> walls;
    std::vector<double> rates;
    const Clock::time_point bodyStart = Clock::now();
    for (std::size_t round = 0;
         rates.size() < 3 || secondsSince(bodyStart) < opts.seconds;
         ++round) {
        if (round > 0 && round % 2 == 0)
            setUp();
        std::vector<PassResult> passes(lanes);
        std::vector<std::string> paths;
        for (std::size_t lane = 0; lane < lanes; ++lane)
            paths.push_back(cbmPath(round * lanes + lane));
        const Clock::time_point start = Clock::now();
        std::vector<std::thread> threads;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            threads.emplace_back([&, lane] {
                pinToLane(lane);
                try {
                    passes[lane] = ingestPass(mtxPaths[lane], paths[lane],
                                              expected, untraced);
                } catch (const std::exception &e) {
                    passes[lane].what = e.what();
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        const double wall = secondsSince(start);
        bool ok = true;
        for (const PassResult &pass : passes) {
            report.operation(pass.ok, pass.what);
            ok = ok && pass.ok;
            walls.push_back(pass.wall * 1000);
        }
        if (!ok)
            break;
        rates.push_back(static_cast<double>(expected.nnz * lanes) / wall);
    }
    report.metric("setup_s", median(setupTimes), "s");
    report.metric("ops_per_s", median(rates), "1/s");
    report.metric("latency_p50_ms", median(walls), "ms");
    report.metric("latency_p90_ms", quantile(walls, 0.9), "ms");
    report.metric("peak_rss_mb", peakRssMb(), "MiB");
    report.line("input: " + std::to_string(expected.nnz) +
                " nnz band matrix, n=" + std::to_string(ingestDim) +
                ", tiles p=" + std::to_string(ingestTile) + "; " +
                std::to_string(lanes) + " conversions at once, one per core");
    report.line("ops_per_s = nnz_per_s (parse + .cbm write + streaming "
                "partition, all cores); latency = one conversion; "
                "samples: " +
                std::to_string(walls.size()) + " conversions in " +
                std::to_string(rates.size()) + " rounds");
}

/**
 * Traced: serial passes, alternately untraced and traced, each pair on
 * one core, so the tracing overhead compares passes made under the same
 * conditions.
 */
void
tracedPasses(const Options &opts, Report &report,
             const std::function<std::string(std::size_t)> &cbmPath,
             const Expected &expected, const std::string &mtxPath)
{
    Ledger untraced(false);
    Ledger traced(true);
    std::vector<double> walls;
    std::vector<double> tracedWalls;
    StreamPartitionStats stats;
    const Clock::time_point bodyStart = Clock::now();
    for (std::size_t i = 0;
         walls.size() < 3 || secondsSince(bodyStart) < opts.seconds; ++i) {
        const bool tracedPass = i % 2 == 1;
        pinToLane(i / 2);
        PassResult pass;
        try {
            pass = ingestPass(mtxPath, cbmPath(i), expected,
                              tracedPass ? traced : untraced);
        } catch (const std::exception &e) {
            pass.what = e.what();
        }
        report.operation(pass.ok, pass.what);
        if (!pass.ok)
            break;
        stats = pass.stats;
        (tracedPass ? tracedWalls : walls).push_back(pass.wall);
    }

    LayerValues values;
    const double passes = static_cast<double>(tracedWalls.size());
    addLedgerLayers(values, traced, passes);
    values["store.source_scans"] = static_cast<double>(stats.sourceScans);
    values["store.passes"] = static_cast<double>(stats.passes);
    values["store.peak_buffered_nnz"] =
        static_cast<double>(stats.peakBufferedNnz);
    double tracedTotal = 0;
    for (double w : tracedWalls)
        tracedTotal += w;
    values["trace.overhead_frac"] = median(tracedWalls) / median(walls) -
                                    1.0;
    values["trace.layer_sum_over_wall"] =
        traced.attributedS("ingest.pass") / tracedTotal;
    emitLayerMetrics(report, values);
    report.line("per-layer times are per pass, over " +
                std::to_string(tracedWalls.size()) + " traced passes (" +
                std::to_string(walls.size()) + " untraced)");
    printLayerTable(report, traced, tracedTotal);
    traced.writeTrace(opts.runDir + "/ingest_cbm.trace.json",
                      "perfbench.ingest_cbm");
}

} // namespace

void
runIngestCbm(const Options &opts, Report &report)
{
    std::vector<std::string> files;
    const auto fileName = [&](const char *stem, std::size_t i,
                              const char *ext) {
        files.push_back(opts.runDir + "/" + stem + std::to_string(i) +
                        ext);
        return files.back();
    };
    const auto cbmPath = [&](std::size_t i) {
        return fileName("ingest-pass-", i, ".cbm");
    };

    // Set-up: each core generates the matrix and writes its own copy of
    // the .mtx, so every conversion of a round reads a file of its own.
    // Untraced runs repeat it before every second round, so its median
    // samples the whole run rather than one moment of it.
    const std::size_t lanes = hostLanes();
    std::vector<double> setupTimes;
    Expected expected;
    std::vector<std::string> mtxPaths;
    const auto setUp = [&] {
        std::vector<std::string> paths;
        for (std::size_t lane = 0; lane < lanes; ++lane)
            paths.push_back(fileName(
                "ingest-input-", setupTimes.size() * lanes + lane, ".mtx"));
        std::vector<Expected> generated(lanes);
        const Clock::time_point start = Clock::now();
        std::vector<std::thread> threads;
        for (std::size_t lane = 0; lane < lanes; ++lane) {
            threads.emplace_back([&, lane] {
                pinToLane(lane);
                try {
                    generated[lane] = writeInput(opts.seed, paths[lane]);
                } catch (const std::exception &) {
                    // Left empty, so the check below counts it failed.
                }
            });
        }
        for (std::thread &t : threads)
            t.join();
        setupTimes.push_back(secondsSince(start));
        if (setupTimes.size() == 1)
            expected = generated[0];
        for (const Expected &g : generated)
            report.operation(g.nnz == expected.nnz &&
                                 g.contentHash == expected.contentHash &&
                                 g.checksum == expected.checksum,
                             "set-up generated a different matrix");
        mtxPaths = paths;
    };
    setUp();
    Digest digest;
    digest.value(expected.nnz);
    digest.value(expected.contentHash);
    digest.value(expected.checksum);
    report.checkPinned(opts, digest);

    try {
        if (opts.trace)
            tracedPasses(opts, report, cbmPath, expected, mtxPaths[0]);
        else
            untracedRounds(opts, report, cbmPath, setUp, setupTimes,
                           expected, mtxPaths);
    } catch (...) {
        for (const std::string &file : files)
            std::filesystem::remove(file);
        throw;
    }
    for (const std::string &file : files)
        std::filesystem::remove(file);
}

} // namespace perfbench
