/**
 * @file
 * Encode hot-path microbenchmark: partition + per-format encode across
 * a density sweep.
 *
 * This is the path every study sweep spends its time in (Figs. 4-14
 * all run it once per design point), so its trajectory is tracked as
 * a JSON artifact: the emitted BENCH_encode_hot.json carries the
 * measured numbers next to the frozen baseline of the dense-scan
 * implementation, and CI runs the --smoke variant under the
 * `perf-smoke` ctest label.
 *
 *   bench_encode_hot [--smoke] [--json PATH]
 *
 * --smoke shrinks the sweep to one (density, p) point at a small
 * dimension so the run finishes in CI time; --json chooses the
 * artifact path (default BENCH_encode_hot.json in the working
 * directory).
 */

#include <chrono>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/json.hh"
#include "formats/registry.hh"
#include "matrix/partitioner.hh"

using namespace copernicus;

namespace {

using Clock = std::chrono::steady_clock;

double
nsSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::nano>(Clock::now() - start)
        .count();
}

/**
 * Seed baseline for the acceptance point: the full density-1e-3, p=32
 * sweep (dim 2048) measured on the dense-scan implementation at commit
 * 1e2eed7, best of 3 on the CI container. That sweep also ran a
 * size-model feature pass over every tile, which the tracked sweep no
 * longer includes (no study sweep runs it), so the speedup against it
 * is not like for like.
 */
constexpr double seedSweepBaselineNs = 876.6e6;

struct PointResult
{
    double density = 0;
    Index p = 0;
    std::size_t tiles = 0;
    std::size_t nnz = 0;
    double partitionNs = 0;
    double encodeNs = 0; ///< all formats summed
    std::vector<std::pair<std::string, double>> perFormat;

    /** The tracked metric: everything the sweep hot path does. */
    double sweepNs() const { return partitionNs + encodeNs; }
};

PointResult
runPoint(const TripletMatrix &matrix, Index p, int reps)
{
    const FormatRegistry &registry = defaultRegistry();
    const auto &formats = allFormats();

    PointResult best;
    for (int rep = 0; rep < reps; ++rep) {
        PointResult r;
        r.p = p;
        r.nnz = matrix.nnz();

        auto t0 = Clock::now();
        const Partitioning parts = partition(matrix, p);
        r.partitionNs = nsSince(t0);
        r.tiles = parts.tiles.size();

        for (FormatKind kind : formats) {
            t0 = Clock::now();
            for (const Tile &tile : parts.tiles)
                (void)registry.codec(kind).encode(tile);
            const double ns = nsSince(t0);
            r.perFormat.emplace_back(std::string(formatName(kind)), ns);
            r.encodeNs += ns;
        }

        if (rep == 0 || r.sweepNs() < best.sweepNs())
            best = std::move(r);
    }
    return best;
}

void
writeJson(const std::string &path, const std::vector<PointResult> &results,
          bool smoke, Index dim)
{
    std::ofstream out(path);
    COPERNICUS_FATAL_IF(!out, "bench_encode_hot: cannot open '" + path + "'");
    out << "{\n  \"bench\": \"encode_hot\",\n";
    out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    out << "  \"dim\": " << dim << ",\n";
    out << "  \"seed_baseline\": {\n"
        << "    \"note\": \"dense-scan implementation at commit 1e2eed7, "
           "density 1e-3, p 32, dim 2048, best of 3; it also ran a "
           "size-model feature pass the tracked sweep_ns no longer "
           "includes, so the speedup is not like for like\",\n"
        << "    \"sweep_ns\": ";
    writeJsonNumber(out, seedSweepBaselineNs);
    out << "\n  },\n  \"results\": [\n";
    double acceptance_ns = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const PointResult &r = results[i];
        out << "    {\"density\": ";
        writeJsonNumber(out, r.density);
        out << ", \"p\": " << r.p << ", \"tiles\": " << r.tiles
            << ", \"nnz\": " << r.nnz << ",\n     \"partition_ns\": ";
        writeJsonNumber(out, r.partitionNs);
        out << ", \"encode_ns\": ";
        writeJsonNumber(out, r.encodeNs);
        out << ", \"sweep_ns\": ";
        writeJsonNumber(out, r.sweepNs());
        out << ",\n     \"encode_ns_by_format\": {";
        for (std::size_t f = 0; f < r.perFormat.size(); ++f) {
            if (f != 0)
                out << ", ";
            writeJsonString(out, r.perFormat[f].first);
            out << ": ";
            writeJsonNumber(out, r.perFormat[f].second);
        }
        out << "}}" << (i + 1 < results.size() ? "," : "") << "\n";
        if (r.density == 0.001 && r.p == 32)
            acceptance_ns = r.sweepNs();
    }
    out << "  ],\n  \"speedup_vs_seed_d0.001_p32\": ";
    writeJsonNumber(out, acceptance_ns > 0 && !smoke
                             ? seedSweepBaselineNs / acceptance_ns
                             : 0.0);
    out << "\n}\n";
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string jsonPath = "BENCH_encode_hot.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else if (arg == "--json" && i + 1 < argc)
            jsonPath = argv[++i];
    }
    benchutil::banner("encode_hot",
                      "partition + encode hot path",
                      argc, argv);

    const Index dim = smoke ? 512 : 2048;
    const int reps = smoke ? 1 : 3;
    const std::vector<double> densities =
        smoke ? std::vector<double>{0.001}
              : std::vector<double>{0.0001, 0.001, 0.01, 0.1};
    const std::vector<Index> sizes =
        smoke ? std::vector<Index>{32} : std::vector<Index>{8, 16, 32};

    std::vector<PointResult> results;
    for (double density : densities) {
        std::uint64_t sm = benchutil::benchSeed + 0x200;
        Rng rng(splitMix64(sm));
        const TripletMatrix matrix = randomMatrix(dim, density, rng);
        for (Index p : sizes) {
            PointResult r = runPoint(matrix, p, reps);
            r.density = density;
            std::printf("d=%-8g p=%-3u tiles=%-7zu partition=%8.2f ms  "
                        "encode=%8.2f ms  sweep=%8.2f ms\n",
                        density, p, r.tiles, r.partitionNs / 1e6,
                        r.encodeNs / 1e6, r.sweepNs() / 1e6);
            results.push_back(std::move(r));
        }
    }

    writeJson(jsonPath, results, smoke, dim);
    std::printf("\nwrote %s\n", jsonPath.c_str());
    return 0;
}
