/**
 * @file
 * mtx2cbm: convert a matrix into a .cbm binary container.
 *
 * The container is the out-of-core input format of the store layer: a
 * sweep over a SuiteSparse-scale matrix converts once and then reopens
 * the .cbm by mmap on every run instead of re-parsing MatrixMarket
 * text. Usage:
 *
 *   ./mtx2cbm input.mtx output.cbm [--epoch N] [--chunk-nnz N]
 *   ./mtx2cbm --surrogate RO output.cbm [--seed N] [...]
 *
 * --surrogate generates the named Table-1 catalog surrogate instead of
 * reading a file, which gives CI and the quickstart a real container
 * without shipping matrix data. The tool prints the container identity
 * (content hash, epoch, chunk count) and verifies the written file
 * with a deep inspection pass before declaring success.
 */

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "common/status.hh"
#include "matrix/mm_io.hh"
#include "store/container.hh"
#include "workloads/suite_catalog.hh"

using namespace copernicus;

namespace {

int
usage(const char *argv0)
{
    std::fprintf(stderr,
                 "usage: %s <input.mtx> <output.cbm> "
                 "[--epoch N] [--chunk-nnz N]\n"
                 "       %s --surrogate <id> <output.cbm> "
                 "[--seed N] [--epoch N] [--chunk-nnz N]\n"
                 "surrogate ids: ",
                 argv0, argv0);
    for (const auto &info : suiteCatalog())
        std::fprintf(stderr, "%s ", info.id.c_str());
    std::fprintf(stderr, "\n");
    return 2;
}

std::uint64_t
parseCount(const std::string &flag, const std::string &text)
{
    try {
        std::size_t pos = 0;
        const std::uint64_t value = std::stoull(text, &pos);
        COPERNICUS_FATAL_IF(
            pos != text.size(), flag + " expects a number, got '" +
                                    text + "'");
        return value;
    } catch (const std::exception &) {
        fatal(flag + " expects a number, got '" + text + "'");
    }
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> positional;
    std::string surrogateId;
    std::uint64_t seed = 42;
    std::uint64_t epoch = 1;
    std::uint64_t chunkNnz = cbmDefaultChunkNnz;

    try {
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto next = [&]() -> std::string {
                COPERNICUS_FATAL_IF(i + 1 >= argc, arg + " needs a value");
                return argv[++i];
            };
            if (arg == "--surrogate")
                surrogateId = next();
            else if (arg == "--seed")
                seed = parseCount(arg, next());
            else if (arg == "--epoch")
                epoch = parseCount(arg, next());
            else if (arg == "--chunk-nnz")
                chunkNnz = parseCount(arg, next());
            else if (arg == "--help" || arg == "-h")
                return usage(argv[0]);
            else
                positional.push_back(arg);
        }

        COPERNICUS_FATAL_IF(chunkNnz < 1 || chunkNnz > (1ULL << 31),
                            "--chunk-nnz must be in [1, 2^31]");

        std::string inputLabel;
        TripletMatrix matrix(1, 1);
        std::string outputPath;
        if (!surrogateId.empty()) {
            if (positional.size() != 1)
                return usage(argv[0]);
            const SuiteMatrixInfo *info =
                findSuiteMatrix(surrogateId);
            COPERNICUS_FATAL_IF(info == nullptr, "unknown surrogate id '" +
                                                     surrogateId +
                                                     "' (try --help)");
            inputLabel = "surrogate " + info->id + " (" + info->name +
                         ", seed " + std::to_string(seed) + ")";
            matrix = info->generate(seed);
            outputPath = positional[0];
        } else {
            if (positional.size() != 2)
                return usage(argv[0]);
            inputLabel = positional[0];
            matrix = readMatrixMarketFile(positional[0]);
            outputPath = positional[1];
        }
        matrix.finalize();

        std::printf("%s: %u x %u, %zu nnz\n", inputLabel.c_str(),
                    matrix.rows(), matrix.cols(), matrix.nnz());
        const std::uint64_t hash =
            writeCbmFile(outputPath, matrix, epoch,
                         static_cast<std::uint32_t>(chunkNnz));

        const std::vector<CbmIssue> issues =
            inspectCbmFile(outputPath, /*deep=*/true);
        for (const CbmIssue &issue : issues)
            std::fprintf(stderr, "mtx2cbm: [%s] %s\n",
                         std::string(cbmIssueKindName(issue.kind))
                             .c_str(),
                         issue.message.c_str());
        COPERNICUS_FATAL_IF(!issues.empty(),
                            "written container failed deep verification");

        const CbmReader reader(outputPath);
        std::printf("%s: epoch %llu, content hash %llu, %u chunks of "
                    "%u nnz\n",
                    outputPath.c_str(),
                    static_cast<unsigned long long>(reader.epoch()),
                    static_cast<unsigned long long>(hash),
                    reader.chunkCount(), reader.chunkTargetNnz());
        return 0;
    } catch (const FatalError &err) {
        std::fprintf(stderr, "mtx2cbm: %s\n", err.what());
        return 1;
    }
}
