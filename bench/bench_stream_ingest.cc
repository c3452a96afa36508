/**
 * @file
 * Out-of-core ingest bench: synthesize a large matrix straight into a
 * .cbm container (never holding the triplet array), mmap it back and
 * run the streaming partitioner under a hard RSS budget.
 *
 *   bench_stream_ingest [--smoke] [--json PATH] [--cbm PATH]
 *                       [--nnz N] [--budget-mb N] [--buffer-nnz N]
 *                       [--keep]
 *
 * The bench FAILS (non-zero exit) if the process peak RSS (VmHWM)
 * exceeds the budget — this is the enforcement half of the store
 * layer's memory contract: an in-memory partition of the full-scale
 * matrix needs >1.2 GB for the triplet array alone, while the
 * streaming path must finish inside a fixed window regardless of
 * matrix size. It also fails when the streamed tiles do not hold
 * exactly the synthesized entries: an order-independent checksum of
 * every (row, col, value) is summed once while writing and once over
 * the tiles in global coordinates, and the two must agree. --smoke
 * ingests ~10M non-zeros under a 256 MB cap for CI; the full run
 * ingests 100M+ under 640 MB. The emitted BENCH_stream_ingest.json
 * records pass counts, peak buffered triplets, the content checksum,
 * peak RSS and phase timings.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/json.hh"
#include "common/rng.hh"
#include "store/container.hh"
#include "store/stream_partitioner.hh"

using namespace copernicus;

namespace {

using Clock = std::chrono::steady_clock;

double
secondsSince(Clock::time_point start)
{
    return std::chrono::duration<double>(Clock::now() - start).count();
}

/** Peak resident set (VmHWM) of this process, in kB; 0 if unknown. */
std::uint64_t
peakRssKb()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line)) {
        if (line.rfind("VmHWM:", 0) != 0)
            continue;
        return std::strtoull(line.c_str() + 6, nullptr, 10);
    }
    return 0;
}

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

/**
 * Stream a deterministic dim x dim matrix into @p writer in canonical
 * order without materializing it: an 8-wide band plus two off-diagonal
 * "rail" columns per row (sorted, deduplicated), so tiles appear both
 * on and off the diagonal. The rails are constant within each
 * 1024-row strip and hop by a prime stride between strips — enough
 * structure variety to exercise multi-tile passes without exploding
 * the run into millions of single-entry tiles. Returns the non-zero
 * count written and adds each entry's entryHash() to @p checksum.
 */
std::uint64_t
synthesizeInto(CbmWriter &writer, Index dim, std::uint64_t &checksum)
{
    std::uint64_t written = 0;
    std::vector<Index> cols;
    for (Index r = 0; r < dim; ++r) {
        cols.clear();
        const Index lo = r >= 3 ? r - 3 : 0;
        const Index hi = r + 4 < dim ? r + 4 : dim - 1;
        for (Index c = lo; c <= hi; ++c)
            cols.push_back(c);
        const std::uint64_t strip = static_cast<std::uint64_t>(r) >> 10;
        const Index inStrip = r & 1023;
        cols.push_back(static_cast<Index>(
            (strip * 7919 * 1024 + inStrip + 13) % dim));
        cols.push_back(static_cast<Index>(
            (strip * 104729 * 1024 + inStrip + 71) % dim));
        std::sort(cols.begin(), cols.end());
        cols.erase(std::unique(cols.begin(), cols.end()), cols.end());
        for (Index c : cols) {
            const auto salt = static_cast<std::uint32_t>(
                (static_cast<std::uint64_t>(r) * 31 + c) & 0xFF);
            Triplet t;
            t.row = r;
            t.col = c;
            t.value = 1.0f + static_cast<Value>(salt) / 256.0f;
            writer.append(t);
            checksum += entryHash(t.row, t.col, t.value);
            ++written;
        }
    }
    return written;
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    bool keep = false;
    std::string jsonPath = "BENCH_stream_ingest.json";
    std::string cbmPath = "stream_ingest.cbm";
    std::uint64_t nnzTarget = 0;
    std::uint64_t budgetMb = 0;
    std::uint64_t bufferNnz = 0;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else if (arg == "--keep")
            keep = true;
        else if (arg == "--json" && i + 1 < argc)
            jsonPath = argv[++i];
        else if (arg == "--cbm" && i + 1 < argc)
            cbmPath = argv[++i];
        else if (arg == "--nnz" && i + 1 < argc)
            nnzTarget = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--budget-mb" && i + 1 < argc)
            budgetMb = std::strtoull(argv[++i], nullptr, 10);
        else if (arg == "--buffer-nnz" && i + 1 < argc)
            bufferNnz = std::strtoull(argv[++i], nullptr, 10);
    }
    benchutil::banner("stream_ingest",
                      "out-of-core .cbm ingest + RSS-bounded streaming "
                      "partition",
                      argc, argv);

    if (nnzTarget == 0)
        nnzTarget = smoke ? 10'000'000ULL : 100'000'000ULL;
    if (budgetMb == 0)
        budgetMb = smoke ? 256 : 640;
    // ASan's redzones, quarantine and shadow pages inflate peak RSS
    // several-fold, which would trip the budget without any real
    // regression in the streaming path; widen it so the gate still
    // catches re-materialization (an order of magnitude, not 4x).
#if defined(__SANITIZE_ADDRESS__)
    budgetMb *= 4;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer)
    budgetMb *= 4;
#endif
#endif
    if (bufferNnz == 0)
        bufferNnz = smoke ? (1ULL << 20) : (1ULL << 22);
    // ~10 entries per row (8-wide band + 2 rails, minus edge clipping).
    const auto dim = static_cast<Index>(nnzTarget / 10);
    const Index p = 1024;

    auto t0 = Clock::now();
    std::uint64_t nnz = 0;
    std::uint64_t writtenChecksum = 0;
    {
        CbmWriter writer(cbmPath, dim, dim, /*epoch=*/1);
        nnz = synthesizeInto(writer, dim, writtenChecksum);
        writer.finish();
    }
    const double ingestSeconds = secondsSince(t0);
    std::printf("ingest: %llu nnz (dim %u) -> %s in %.2f s\n",
                static_cast<unsigned long long>(nnz), dim,
                cbmPath.c_str(), ingestSeconds);

    const CbmReader reader(cbmPath);
    const std::uint64_t fileBytes =
        64 + nnz * sizeof(Triplet) +
        static_cast<std::uint64_t>(reader.chunkCount()) * 24;

    StreamPartitionOptions options;
    options.maxBufferedNnz = bufferNnz;
    std::uint64_t tileNnz = 0;
    std::uint64_t streamedChecksum = 0;
    t0 = Clock::now();
    const StreamPartitionStats stats = forEachTileStreaming(
        reader, p, options, [&](Tile &&tile) {
            tileNnz += tile.nonzeros().size();
            const Index row0 = tile.tileRow() * p;
            const Index col0 = tile.tileCol() * p;
            for (const TileNonzero &e : tile.nonzeros())
                streamedChecksum +=
                    entryHash(row0 + e.row, col0 + e.col, e.value);
        });
    const double partitionSeconds = secondsSince(t0);

    const std::uint64_t rssKb = peakRssKb();
    const double rssMb = static_cast<double>(rssKb) / 1024.0;
    std::printf("partition: p=%u, %zu tiles (+%zu empty), %zu passes, "
                "peak buffer %llu nnz, %.2f s\n",
                p, stats.nonZeroTiles, stats.zeroTiles, stats.passes,
                static_cast<unsigned long long>(stats.peakBufferedNnz),
                partitionSeconds);
    std::printf("peak RSS %.1f MB (budget %llu MB)\n", rssMb,
                static_cast<unsigned long long>(budgetMb));

    COPERNICUS_FATAL_IF(tileNnz != nnz, "stream_ingest: tile nnz mismatch");
    COPERNICUS_FATAL_IF(
        streamedChecksum != writtenChecksum,
        "stream_ingest: the streamed tiles' content checksum differs "
        "from the synthesized matrix's");

    {
        std::ofstream out(jsonPath);
        COPERNICUS_FATAL_IF(
            !out,
            "bench_stream_ingest: cannot open '" + jsonPath + "'");
        out << "{\n  \"bench\": \"stream_ingest\",\n"
            << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n"
            << "  \"nnz\": " << nnz << ",\n  \"dim\": " << dim
            << ",\n  \"file_bytes\": " << fileBytes
            << ",\n  \"partition_size\": " << p
            << ",\n  \"buffer_nnz\": " << bufferNnz
            << ",\n  \"passes\": " << stats.passes
            << ",\n  \"source_scans\": " << stats.sourceScans
            << ",\n  \"peak_buffered_nnz\": " << stats.peakBufferedNnz
            << ",\n  \"tiles\": " << stats.nonZeroTiles
            << ",\n  \"zero_tiles\": " << stats.zeroTiles
            << ",\n  \"content_checksum\": " << writtenChecksum
            << ",\n  \"ingest_seconds\": ";
        writeJsonNumber(out, ingestSeconds);
        out << ",\n  \"partition_seconds\": ";
        writeJsonNumber(out, partitionSeconds);
        out << ",\n  \"peak_rss_mb\": ";
        writeJsonNumber(out, rssMb);
        out << ",\n  \"budget_mb\": " << budgetMb << "\n}\n";
    }
    std::printf("wrote %s\n", jsonPath.c_str());

    if (!keep)
        std::remove(cbmPath.c_str());

    // The acceptance gate: the whole run — ingest, mmap scan, every
    // partitioning pass — must have fit the window.
    COPERNICUS_FATAL_IF(rssKb > budgetMb * 1024,
                        "stream_ingest: peak RSS " + std::to_string(rssKb) +
                            " kB exceeds the " + std::to_string(budgetMb) +
                            " MB budget");
    return 0;
}
