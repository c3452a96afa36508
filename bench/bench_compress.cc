/**
 * @file
 * Second-stage stream-compression characterization: per-stream-class
 * compression ratios and throughputs for both in-repo families (LZ4
 * and LZF, compress/) across the Table-1 workload catalog, plus the
 * Figure-10 bandwidth-utilization sweep re-run with the second stage
 * on and off.
 *
 * Streams are taken from the CSR encoding of every tile — the
 * canonical format with all three stream classes (values, column
 * indices, row offsets). Every compressed image is decompressed and
 * byte-compared on the spot, so a run that completes is also a
 * roundtrip proof over the whole catalog. The emitted
 * BENCH_compress.json is schema-checked before the bench exits and
 * uploaded by the CI perf-smoke job.
 *
 *   bench_compress [--smoke] [--json PATH]
 *
 * --smoke shrinks the catalog slice and the fig10 sweep so the run
 * finishes in CI time; --json chooses the artifact path (default
 * BENCH_compress.json in the working directory).
 */

#include <array>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench_common.hh"
#include "common/json.hh"
#include "compress/second_stage.hh"
#include "compress/stream_compressor.hh"
#include "core/study.hh"
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

/** One (stream class, family) cell of the characterization. */
struct FamilyAccum
{
    double compressedBytes = 0;
    double compressNs = 0;
    double decompressNs = 0;
};

struct ClassAccum
{
    double rawBytes = 0;
    FamilyAccum lz4;
    FamilyAccum lzf;
};

struct WorkloadResult
{
    std::string name;
    std::size_t tiles = 0;
    std::size_t nnz = 0;
    std::array<ClassAccum, 3> classes; ///< indexed by StreamClass
};

/** bytes over ns -> MB/s; 0 when nothing was timed. */
double
mbPerSec(double bytes, double ns)
{
    return ns <= 0 ? 0.0 : bytes * 1e3 / ns;
}

/** payload bytes / raw bytes; 1 for an empty class. */
double
ratioOf(double compressedBytes, double rawBytes)
{
    return rawBytes <= 0 ? 1.0 : compressedBytes / rawBytes;
}

WorkloadResult
characterize(const std::string &name, const TripletMatrix &matrix,
             Index p)
{
    const FormatRegistry &registry = defaultRegistry();
    WorkloadResult r;
    r.name = name;
    r.nnz = matrix.nnz();

    std::vector<std::byte> compressed;
    std::vector<std::byte> scratch;
    const Partitioning parts = partition(matrix, p);
    r.tiles = parts.tiles.size();
    for (const Tile &tile : parts.tiles) {
        const auto encoded =
            registry.codec(FormatKind::CSR).encode(tile);
        for (const TypedStream &stream : encoded->typedStreams()) {
            ClassAccum &cls =
                r.classes[static_cast<std::size_t>(stream.cls)];
            cls.rawBytes += static_cast<double>(stream.size());
            for (const StreamCompressor *compressor :
                 {&lz4Compressor(), &lzfCompressor()}) {
                FamilyAccum &fam =
                    compressor->family() == CompressionFamily::Lz4
                        ? cls.lz4
                        : cls.lzf;
                compressed.clear();
                auto t0 = Clock::now();
                compressor->compress(stream.bytes, compressed);
                fam.compressNs += nsSince(t0);
                fam.compressedBytes +=
                    static_cast<double>(compressed.size());

                scratch.assign(stream.size(), std::byte(0xAA));
                t0 = Clock::now();
                const bool ok =
                    compressor->decompress(compressed, scratch);
                fam.decompressNs += nsSince(t0);
                COPERNICUS_FATAL_IF(!ok || (stream.size() != 0 &&
                                            std::memcmp(scratch.data(),
                                                        stream.bytes.data(),
                                                        stream.size()) != 0),
                                    "bench_compress: roundtrip mismatch on '" +
                                        name + "' stream " + stream.name);
            }
        }
    }
    return r;
}

/** The fig10 utilization sweep, second stage off and on. */
struct Fig10Result
{
    std::vector<double> densities;
    // bwUtil[format][density index], off and on.
    std::vector<std::string> formats;
    std::vector<std::vector<double>> off;
    std::vector<std::vector<double>> on;
};

Fig10Result
runFig10(const std::vector<double> &densities, Index dim, Index p)
{
    Fig10Result fig;
    fig.densities = densities;
    for (FormatKind kind : paperFormats())
        fig.formats.emplace_back(formatName(kind));

    benchutil::WorkloadSet set;
    for (double density : densities)
        set.emplace_back("d=" + std::to_string(density),
                         TripletMatrix(1, 1));
    benchutil::generateWorkloads(set, [&](std::size_t i) {
        std::uint64_t sm = benchutil::benchSeed + 0x300 + i;
        Rng rng(splitMix64(sm));
        return randomMatrix(dim, densities[i], rng);
    });

    for (const bool second_stage : {false, true}) {
        StudyConfig cfg;
        cfg.partitionSizes = {p};
        cfg.hls.secondStageCompression = second_stage;
        Study study(cfg);
        for (const auto &[name, matrix] : set)
            study.addWorkload(name, matrix);
        const StudyResult result = study.run();

        auto &table = second_stage ? fig.on : fig.off;
        table.assign(fig.formats.size(),
                     std::vector<double>(densities.size(), 0.0));
        const auto &kinds = paperFormats();
        for (std::size_t f = 0; f < kinds.size(); ++f) {
            for (std::size_t d = 0; d < densities.size(); ++d) {
                for (const StudyRow &row : result.rows) {
                    if (row.format == kinds[f] &&
                        row.workload == set[d].first)
                        table[f][d] = row.bandwidthUtilization;
                }
            }
        }
    }
    return fig;
}

void
writeFamilyJson(std::ostream &out, const char *label,
                const FamilyAccum &fam, double rawBytes)
{
    out << '"' << label << "\": {\"ratio\": ";
    writeJsonNumber(out, ratioOf(fam.compressedBytes, rawBytes));
    out << ", \"compressed_bytes\": ";
    writeJsonNumber(out, fam.compressedBytes);
    out << ", \"compress_mb_s\": ";
    writeJsonNumber(out, mbPerSec(rawBytes, fam.compressNs));
    out << ", \"decompress_mb_s\": ";
    writeJsonNumber(out, mbPerSec(rawBytes, fam.decompressNs));
    out << '}';
}

std::string
renderJson(const std::vector<WorkloadResult> &results,
           const Fig10Result &fig, bool smoke, Index p)
{
    std::ostringstream out;
    out << "{\n  \"bench\": \"compress\",\n";
    out << "  \"smoke\": " << (smoke ? "true" : "false") << ",\n";
    out << "  \"p\": " << p << ",\n";
    out << "  \"families\": [\"lz4\", \"lzf\"],\n";
    out << "  \"classes\": [\"value\", \"index\", \"offset\"],\n";
    out << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const WorkloadResult &r = results[i];
        out << "    {\"workload\": ";
        writeJsonString(out, r.name);
        out << ", \"tiles\": " << r.tiles << ", \"nnz\": " << r.nnz
            << ",\n";
        static constexpr const char *classNames[] = {"value", "index",
                                                     "offset"};
        for (std::size_t c = 0; c < 3; ++c) {
            const ClassAccum &cls = r.classes[c];
            out << "     \"" << classNames[c]
                << "\": {\"raw_bytes\": ";
            writeJsonNumber(out, cls.rawBytes);
            out << ", ";
            writeFamilyJson(out, "lz4", cls.lz4, cls.rawBytes);
            out << ", ";
            writeFamilyJson(out, "lzf", cls.lzf, cls.rawBytes);
            out << '}' << (c + 1 < 3 ? "," : "") << '\n';
        }
        out << "    }" << (i + 1 < results.size() ? "," : "") << "\n";
    }
    out << "  ],\n  \"fig10\": {\n    \"p\": " << p
        << ",\n    \"densities\": [";
    for (std::size_t d = 0; d < fig.densities.size(); ++d) {
        if (d != 0)
            out << ", ";
        writeJsonNumber(out, fig.densities[d]);
    }
    out << "],\n    \"bw_util\": [\n";
    for (std::size_t f = 0; f < fig.formats.size(); ++f) {
        out << "      {\"format\": ";
        writeJsonString(out, fig.formats[f]);
        for (const bool second_stage : {false, true}) {
            const auto &table = second_stage ? fig.on : fig.off;
            out << ", \"" << (second_stage ? "on" : "off")
                << "\": [";
            for (std::size_t d = 0; d < table[f].size(); ++d) {
                if (d != 0)
                    out << ", ";
                writeJsonNumber(out, table[f][d]);
            }
            out << ']';
        }
        out << '}' << (f + 1 < fig.formats.size() ? "," : "") << '\n';
    }
    out << "    ]\n  }\n}\n";
    return out.str();
}

/**
 * Schema self-check over the rendered artifact: well-formed JSON plus
 * every key a downstream consumer reads. Cheap insurance that a
 * refactor of the writer cannot silently ship an unparsable artifact.
 */
void
checkSchema(const std::string &text)
{
    COPERNICUS_FATAL_IF(!jsonValid(text),
                        "BENCH_compress.json failed JSON validation");
    for (const char *key :
         {"\"bench\"", "\"smoke\"", "\"families\"", "\"classes\"",
          "\"workloads\"", "\"ratio\"", "\"compress_mb_s\"",
          "\"decompress_mb_s\"", "\"raw_bytes\"", "\"fig10\"",
          "\"densities\"", "\"bw_util\""}) {
        COPERNICUS_FATAL_IF(text.find(key) == std::string::npos,
                            std::string("BENCH_compress.json schema check: "
                                        "missing key ") +
                                key);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    std::string jsonPath = "BENCH_compress.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--smoke")
            smoke = true;
        else if (arg == "--json" && i + 1 < argc)
            jsonPath = argv[++i];
    }
    benchutil::banner("compress",
                      "second-stage stream compression: per-class "
                      "ratios/throughputs and fig10 on/off",
                      argc, argv);

    const Index p = 16;
    benchutil::WorkloadSet catalog = benchutil::suiteWorkloads();
    if (smoke && catalog.size() > 4)
        catalog.erase(catalog.begin() + 4, catalog.end());

    std::vector<WorkloadResult> results;
    for (const auto &[name, matrix] : catalog) {
        WorkloadResult r = characterize(name, matrix, p);
        const ClassAccum &idx = r.classes[1];
        std::printf("%-14s tiles=%-6zu raw=%9.0f B  "
                    "index lz4=%.3f lzf=%.3f  value lz4=%.3f\n",
                    r.name.c_str(), r.tiles,
                    r.classes[0].rawBytes + idx.rawBytes +
                        r.classes[2].rawBytes,
                    ratioOf(idx.lz4.compressedBytes, idx.rawBytes),
                    ratioOf(idx.lzf.compressedBytes, idx.rawBytes),
                    ratioOf(r.classes[0].lz4.compressedBytes,
                            r.classes[0].rawBytes));
        results.push_back(std::move(r));
    }

    const std::vector<double> densities =
        smoke ? std::vector<double>{0.01} : benchutil::densitySweep();
    const Index dim = smoke ? 256 : benchutil::syntheticDim();
    std::printf("\nfig10 sweep: %zu densities, dim %u, second stage "
                "off vs on...\n",
                densities.size(), dim);
    const Fig10Result fig = runFig10(densities, dim, p);

    const std::string json = renderJson(results, fig, smoke, p);
    checkSchema(json);
    std::ofstream out(jsonPath);
    COPERNICUS_FATAL_IF(!out,
                        "bench_compress: cannot open '" + jsonPath + "'");
    out << json;
    out.close();
    std::printf("\nwrote %s (schema ok)\n", jsonPath.c_str());
    return 0;
}
