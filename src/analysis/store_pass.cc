#include "analysis/store_pass.hh"

#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <stdlib.h>
#include <unistd.h>

#include "common/rng.hh"
#include "common/status.hh"
#include "store/container.hh"
#include "workloads/generators.hh"

namespace copernicus {

namespace {

const char *
ruleFor(CbmIssueKind kind)
{
    switch (kind) {
      case CbmIssueKind::Header: return "COP110";
      case CbmIssueKind::Chunks: return "COP111";
      case CbmIssueKind::Hash: return "COP112";
    }
    panic("store pass: unhandled issue kind");
}

/** RAII temp directory; empty path when creation failed. */
class ScratchDir
{
  public:
    ScratchDir()
    {
        char pattern[] = "/tmp/copernicus_lint_store.XXXXXX";
        if (::mkdtemp(pattern) != nullptr)
            path_ = pattern;
    }

    ~ScratchDir()
    {
        for (const std::string &file : files)
            std::remove(file.c_str());
        if (!path_.empty())
            ::rmdir(path_.c_str());
    }

    bool ok() const { return !path_.empty(); }

    /** Register and return @p name as a path inside the directory. */
    std::string
    file(const std::string &name)
    {
        files.push_back(path_ + "/" + name);
        return files.back();
    }

  private:
    std::string path_;
    std::vector<std::string> files;
};

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/**
 * Require the inspector to flag @p corrupted with at least one issue
 * of @p kind; a miss is a soundness error under that kind's own rule.
 */
void
expectFlagged(const std::string &corrupted, CbmIssueKind kind,
              const std::string &what, LintReport &report)
{
    for (const CbmIssue &issue : inspectCbmFile(corrupted, true))
        if (issue.kind == kind)
            return;
    report.error(ruleFor(kind), "store", "",
                 "inspector failed to flag an injected " + what +
                     " defect — the " + std::string(ruleFor(kind)) +
                     " invariant is not actually checked");
}

} // namespace

void
checkContainerFile(const std::string &path, LintReport &report)
{
    for (const CbmIssue &issue : inspectCbmFile(path, true))
        report.error(ruleFor(issue.kind), "store", path,
                     issue.message);
}

void
runStorePass(const LintOptions &options, LintReport &report)
{
    ScratchDir scratch;
    if (scratch.ok()) {
        // Round-trip half: freshly written containers of several
        // shapes must deep-inspect clean (multi-chunk via a small
        // chunk target, single-chunk via the default).
        Rng rng(0x5704E);
        TripletMatrix band = bandMatrix(256, 6, rng);
        band.finalize();
        TripletMatrix random = randomMatrix(128, 0.08, rng);
        random.finalize();

        const std::string multi = scratch.file("multi_chunk.cbm");
        writeCbmFile(multi, band, /*epoch=*/3,
                     /*chunkTargetNnz=*/257);
        checkContainerFile(multi, report);

        const std::string single = scratch.file("single_chunk.cbm");
        writeCbmFile(single, random, /*epoch=*/1);
        checkContainerFile(single, report);

        // Injection half: one defect per rule class, each of which
        // the inspector must catch.
        const std::string clean = readFile(multi);
        const CbmHeader *header =
            reinterpret_cast<const CbmHeader *>(clean.data());
        if (clean.size() > sizeof(CbmHeader) &&
            header->chunkCount >= 2) {
            std::string bad = clean;
            bad[4] = static_cast<char>(bad[4] ^ 0x2); // version field
            const std::string headerPath =
                scratch.file("bad_header.cbm");
            writeFile(headerPath, bad);
            expectFlagged(headerPath, CbmIssueKind::Header,
                          "header-version", report);

            // Swap the first two directory entries: offsets stop
            // being contiguous and first/last rows stop being
            // monotone, while header and payload stay pristine.
            bad = clean;
            const std::size_t dir =
                static_cast<std::size_t>(header->directoryOffset);
            for (std::size_t i = 0; i < sizeof(CbmChunkInfo); ++i)
                std::swap(bad[dir + i],
                          bad[dir + sizeof(CbmChunkInfo) + i]);
            const std::string chunksPath =
                scratch.file("bad_chunks.cbm");
            writeFile(chunksPath, bad);
            expectFlagged(chunksPath, CbmIssueKind::Chunks,
                          "chunk-directory", report);

            // Flip a mantissa bit of the first value: order and
            // bounds stay legal, the content hash must not.
            bad = clean;
            bad[sizeof(CbmHeader) + 8] ^= 0x1;
            const std::string hashPath = scratch.file("bad_hash.cbm");
            writeFile(hashPath, bad);
            expectFlagged(hashPath, CbmIssueKind::Hash,
                          "payload-hash", report);
        } else {
            report.error("COP110", "store", "",
                         "store pass could not build its multi-chunk "
                         "fixture (container too small)");
        }
    } else {
        report.warning("COP110", "store", "",
                       "store pass skipped defect injection: no "
                       "scratch directory available");
    }

    for (const std::string &path : options.storeContainers)
        checkContainerFile(path, report);
}

} // namespace copernicus
