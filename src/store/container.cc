#include "store/container.hh"

#include <cstddef>
#include <cstring>

#include "common/fnv.hh"
#include "common/math.hh"
#include "common/status.hh"

namespace copernicus {

namespace {

/** Bytes of one packed triplet record. */
constexpr std::uint64_t tripletBytes = sizeof(Triplet);

/** Payload byte offset of triplet @p i (payload starts at the
 *  header's end). */
constexpr std::uint64_t
tripletOffset(std::uint64_t i)
{
    return sizeof(CbmHeader) + i * tripletBytes;
}

/**
 * The payload rule, shared by CbmReader::scan() and the deep
 * inspection: @p t lies inside the rows x cols matrix, holds a
 * non-zero value, and its (row, col) key is at least @p next. Feed the
 * triplets in stored order with @p next starting at 0; each call
 * advances @p next past @p t's key, so the keys must strictly
 * increase.
 */
bool
admitTriplet(const Triplet &t, Index rows, Index cols,
             std::uint64_t &next)
{
    const std::uint64_t key = std::uint64_t(t.row) << 32 | t.col;
    const bool ok = t.row < rows && t.col < cols &&
                    t.value != Value(0) && key >= next;
    next = key + 1;
    return ok;
}

/** How a breach of the payload rule at triplet @p index reads. */
std::string
payloadBreach(std::uint64_t index, const Triplet &t)
{
    return "triplet " + std::to_string(index) + " (" +
           std::to_string(t.row) + ", " + std::to_string(t.col) +
           ") breaks canonical order or bounds";
}

std::string
kindWord(CbmIssueKind kind)
{
    switch (kind) {
      case CbmIssueKind::Header:
        return "header";
      case CbmIssueKind::Chunks:
        return "chunks";
      case CbmIssueKind::Hash:
        return "hash";
    }
    return "unknown";
}

/**
 * Shared validation core over an already-mapped file. Shallow checks
 * cover the header and directory; @p deep adds the payload scan and
 * hash recomputation. Appends to @p issues and returns false when the
 * header is too broken for the directory/payload to be interpreted.
 */
bool
inspectMapped(const MmapFile &file, bool deep,
              std::vector<CbmIssue> &issues)
{
    const auto headerIssue = [&issues](const std::string &msg) {
        issues.push_back({CbmIssueKind::Header, msg});
    };
    const auto chunkIssue = [&issues](const std::string &msg) {
        issues.push_back({CbmIssueKind::Chunks, msg});
    };

    if (file.size() < sizeof(CbmHeader)) {
        headerIssue("file holds " + std::to_string(file.size()) +
                    " bytes; the header alone needs " +
                    std::to_string(sizeof(CbmHeader)));
        return false;
    }
    CbmHeader header;
    std::memcpy(&header, file.data(), sizeof(header));

    if (std::memcmp(header.magic, "CBM1", 4) != 0) {
        headerIssue("bad magic (not a CBM container)");
        return false;
    }
    if (header.version != cbmVersion) {
        headerIssue("unsupported version " +
                    std::to_string(header.version) +
                    " (this build reads version " +
                    std::to_string(cbmVersion) + ")");
        return false;
    }
    if (header.headerHash != cbmHeaderHash(header)) {
        headerIssue("header hash mismatch (corrupt header)");
        return false;
    }
    bool ok = true;
    if (header.rows == 0 || header.cols == 0) {
        headerIssue("zero matrix dimension (" +
                    std::to_string(header.rows) + " x " +
                    std::to_string(header.cols) + ")");
        ok = false;
    }
    if (header.chunkTargetNnz == 0 && header.nnz != 0) {
        headerIssue("zero chunk granularity with " +
                    std::to_string(header.nnz) + " non-zeros");
        return false;
    }
    const std::uint64_t expectDirectory = tripletOffset(header.nnz);
    if (header.directoryOffset != expectDirectory) {
        headerIssue("directory offset " +
                    std::to_string(header.directoryOffset) +
                    " does not follow the payload (expected " +
                    std::to_string(expectDirectory) + ")");
        return false;
    }
    const std::uint64_t expectChunks =
        header.chunkTargetNnz == 0
            ? 0
            : ceilDiv(header.nnz, header.chunkTargetNnz);
    if (header.chunkCount != expectChunks) {
        chunkIssue("chunk count " + std::to_string(header.chunkCount) +
                   " inconsistent with nnz/granularity (expected " +
                   std::to_string(expectChunks) + ")");
        ok = false;
    }
    const std::uint64_t expectSize =
        header.directoryOffset +
        std::uint64_t(header.chunkCount) * sizeof(CbmChunkInfo);
    if (file.size() != expectSize) {
        headerIssue("file holds " + std::to_string(file.size()) +
                    " bytes; header describes " +
                    std::to_string(expectSize));
        return false;
    }

    // Directory: contiguous chunks, monotone row extents, counts that
    // sum to the header's nnz.
    std::vector<CbmChunkInfo> directory(header.chunkCount);
    if (header.chunkCount != 0) {
        std::memcpy(directory.data(),
                    file.data() + header.directoryOffset,
                    directory.size() * sizeof(CbmChunkInfo));
    }
    std::uint64_t runningNnz = 0;
    for (std::uint32_t i = 0; i < header.chunkCount; ++i) {
        const CbmChunkInfo &chunk = directory[i];
        const std::string where = "chunk " + std::to_string(i);
        if (chunk.offset != tripletOffset(runningNnz)) {
            chunkIssue(where + " offset " +
                       std::to_string(chunk.offset) +
                       " is not contiguous (expected " +
                       std::to_string(tripletOffset(runningNnz)) + ")");
            ok = false;
        }
        if (chunk.nnz == 0) {
            chunkIssue(where + " is empty");
            ok = false;
        }
        if (i + 1 < header.chunkCount &&
            chunk.nnz != header.chunkTargetNnz) {
            chunkIssue(where + " holds " + std::to_string(chunk.nnz) +
                       " triplets; every chunk but the last must hold " +
                       std::to_string(header.chunkTargetNnz));
            ok = false;
        }
        if (chunk.firstRow > chunk.lastRow) {
            chunkIssue(where + " row extent [" +
                       std::to_string(chunk.firstRow) + ", " +
                       std::to_string(chunk.lastRow) + "] is inverted");
            ok = false;
        }
        if (chunk.lastRow >= header.rows) {
            chunkIssue(where + " last row " +
                       std::to_string(chunk.lastRow) +
                       " exceeds the matrix (" +
                       std::to_string(header.rows) + " rows)");
            ok = false;
        }
        if (i > 0 && chunk.firstRow < directory[i - 1].lastRow) {
            chunkIssue(where + " first row " +
                       std::to_string(chunk.firstRow) +
                       " precedes chunk " + std::to_string(i - 1) +
                       "'s last row " +
                       std::to_string(directory[i - 1].lastRow) +
                       " (extents must be monotone)");
            ok = false;
        }
        runningNnz += chunk.nnz;
    }
    if (runningNnz != header.nnz) {
        chunkIssue("directory covers " + std::to_string(runningNnz) +
                   " triplets; header declares " +
                   std::to_string(header.nnz));
        ok = false;
    }

    if (!deep || !ok)
        return ok;

    // Payload: canonical order, in-range coordinates, chunk extents
    // that match the data, and a content hash covering every byte.
    // Report the first breach of each class only — a corrupt payload
    // would otherwise drown the caller in one issue per triplet.
    std::uint64_t hash = fnvOffsetBasis;
    bool orderReported = false;
    bool extentReported = false;
    std::uint64_t nextKey = 0;
    std::uint64_t seen = 0;
    for (std::uint32_t c = 0; c < header.chunkCount; ++c) {
        const CbmChunkInfo &chunk = directory[c];
        const unsigned char *bytes = file.data() + chunk.offset;
        hash = fnv1a(bytes, chunk.nnz * tripletBytes, hash);
        for (std::uint64_t i = 0; i < chunk.nnz; ++i, ++seen) {
            Triplet t;
            std::memcpy(&t, bytes + i * tripletBytes, tripletBytes);
            const bool admitted =
                admitTriplet(t, header.rows, header.cols, nextKey);
            if (!orderReported && !admitted) {
                chunkIssue(payloadBreach(seen, t));
                orderReported = true;
                ok = false;
            }
            if (!extentReported &&
                (t.row < chunk.firstRow || t.row > chunk.lastRow)) {
                chunkIssue("triplet " + std::to_string(seen) +
                           " row " + std::to_string(t.row) +
                           " falls outside chunk " + std::to_string(c) +
                           "'s extent [" +
                           std::to_string(chunk.firstRow) + ", " +
                           std::to_string(chunk.lastRow) + "]");
                extentReported = true;
                ok = false;
            }
        }
    }
    if (hash != header.contentHash) {
        issues.push_back(
            {CbmIssueKind::Hash,
             "content hash mismatch: header stores " +
                 std::to_string(header.contentHash) +
                 ", payload hashes to " + std::to_string(hash)});
        ok = false;
    }
    return ok;
}

} // namespace

std::uint64_t
cbmHeaderHash(const CbmHeader &header)
{
    return fnv1a(&header, offsetof(CbmHeader, headerHash));
}

std::uint64_t
contentHashOf(const TripletMatrix &matrix)
{
    COPERNICUS_PANIC_IF(!matrix.finalized(),
                        "contentHashOf requires a finalized matrix");
    return fnv1a(matrix.triplets().data(),
                 matrix.nnz() * tripletBytes);
}

CbmWriter::CbmWriter(const std::string &path, Index rows, Index cols,
                     std::uint64_t epoch,
                     std::uint32_t chunkTargetNnz)
    : path(path), out(path, std::ios::binary | std::ios::trunc),
      runningHash(fnvOffsetBasis)
{
    COPERNICUS_FATAL_IF(rows == 0 || cols == 0,
                        "cbm: matrix dimensions must be positive");
    COPERNICUS_FATAL_IF(chunkTargetNnz == 0,
                        "cbm: chunk granularity must be positive");
    COPERNICUS_FATAL_IF(!out, "cbm: cannot open '" + path + "' for writing");
    header.version = cbmVersion;
    header.rows = rows;
    header.cols = cols;
    header.epoch = epoch;
    header.chunkTargetNnz = chunkTargetNnz;
    // Placeholder; finish() seeks back and writes the real header.
    const char zeros[sizeof(CbmHeader)] = {};
    out.write(zeros, sizeof(zeros));
}

CbmWriter::~CbmWriter() = default;

void
CbmWriter::append(const Triplet &t)
{
    COPERNICUS_PANIC_IF(finished, "cbm: append after finish");
    COPERNICUS_FATAL_IF(t.row >= header.rows || t.col >= header.cols,
                        "cbm: triplet (" + std::to_string(t.row) + ", " +
                            std::to_string(t.col) + ") out of range for " +
                            std::to_string(header.rows) + " x " +
                            std::to_string(header.cols));
    COPERNICUS_FATAL_IF(t.value == Value(0),
                        "cbm: explicit zero at (" + std::to_string(t.row) +
                            ", " + std::to_string(t.col) + ")");
    COPERNICUS_FATAL_IF(
        havePrev && (t.row < prev.row ||
                     (t.row == prev.row && t.col <= prev.col)),
        "cbm: triplet (" + std::to_string(t.row) + ", " +
            std::to_string(t.col) + ") breaks canonical row-major order");

    if (written % header.chunkTargetNnz == 0) {
        open_chunk.offset = tripletOffset(written);
        open_chunk.nnz = 0;
        open_chunk.firstRow = t.row;
    }
    open_chunk.lastRow = t.row;
    ++open_chunk.nnz;

    out.write(reinterpret_cast<const char *>(&t), sizeof(t));
    runningHash = fnv1a(&t, sizeof(t), runningHash);
    ++written;
    prev = t;
    havePrev = true;
    if (open_chunk.nnz == header.chunkTargetNnz)
        sealChunk();
}

void
CbmWriter::sealChunk()
{
    directory.push_back(open_chunk);
    open_chunk = CbmChunkInfo{};
}

std::uint64_t
CbmWriter::finish()
{
    COPERNICUS_PANIC_IF(finished, "cbm: finish called twice");
    finished = true;
    if (open_chunk.nnz != 0)
        sealChunk();
    COPERNICUS_FATAL_IF(directory.size() > UINT32_MAX,
                        "cbm: too many chunks for the directory");

    header.nnz = written;
    header.contentHash = runningHash;
    header.chunkCount = static_cast<std::uint32_t>(directory.size());
    header.directoryOffset = tripletOffset(written);
    header.headerHash = cbmHeaderHash(header);

    out.write(reinterpret_cast<const char *>(directory.data()),
              static_cast<std::streamsize>(directory.size() *
                                           sizeof(CbmChunkInfo)));
    out.seekp(0);
    out.write(reinterpret_cast<const char *>(&header), sizeof(header));
    out.flush();
    COPERNICUS_FATAL_IF(!out, "cbm: write to '" + path + "' failed");
    out.close();
    return header.contentHash;
}

std::uint64_t
writeCbmFile(const std::string &path, const TripletMatrix &matrix,
             std::uint64_t epoch, std::uint32_t chunkTargetNnz)
{
    COPERNICUS_PANIC_IF(!matrix.finalized(),
                        "writeCbmFile requires a finalized matrix");
    CbmWriter writer(path, matrix.rows(), matrix.cols(), epoch,
                     chunkTargetNnz);
    for (const Triplet &t : matrix.triplets())
        writer.append(t);
    return writer.finish();
}

std::string_view
cbmIssueKindName(CbmIssueKind kind)
{
    switch (kind) {
      case CbmIssueKind::Header: return "header";
      case CbmIssueKind::Chunks: return "chunks";
      case CbmIssueKind::Hash: return "hash";
    }
    panic("cbmIssueKindName: unhandled kind");
}

std::vector<CbmIssue>
inspectCbmFile(const std::string &path, bool deep)
{
    std::vector<CbmIssue> issues;
    try {
        const MmapFile file(path);
        inspectMapped(file, deep, issues);
    } catch (const FatalError &err) {
        issues.push_back({CbmIssueKind::Header, err.what()});
    }
    return issues;
}

CbmReader::CbmReader(const std::string &path) : file(path)
{
    std::vector<CbmIssue> issues;
    inspectMapped(file, /*deep=*/false, issues);
    if (!issues.empty()) {
        fatal("cbm: '" + path +
              "': " + kindWord(issues.front().kind) + ": " +
              issues.front().message);
    }
    std::memcpy(&header, file.data(), sizeof(header));
    directory.resize(header.chunkCount);
    if (header.chunkCount != 0) {
        std::memcpy(directory.data(),
                    file.data() + header.directoryOffset,
                    directory.size() * sizeof(CbmChunkInfo));
    }
}

const Triplet *
CbmReader::chunkData(std::uint32_t i) const
{
    COPERNICUS_PANIC_IF(i >= directory.size(),
                        "cbm: chunk index out of range");
    // Payload records start at offset 64 and are 12 bytes apiece, so
    // every chunk start satisfies Triplet's 4-byte alignment on top
    // of the page-aligned mapping.
    return reinterpret_cast<const Triplet *>(file.data() +
                                             directory[i].offset);
}

void
CbmReader::scan(const std::function<void(const Triplet &)> &fn) const
{
    // Each scan starts its own drop-behind window; without the reset
    // a second scan (the partitioner makes many) would never release
    // a page and the whole file would end up resident.
    file.resetDropWindow();
    // Opening checked only the header and directory; the payload is
    // file bytes, so every triplet is held to the TripletSource
    // contract before a caller sees it.
    std::uint64_t nextKey = 0;
    std::uint64_t seen = 0;
    for (std::uint32_t c = 0; c < directory.size(); ++c) {
        const CbmChunkInfo &chunk = directory[c];
        const Triplet *data = chunkData(c);
        for (std::uint64_t i = 0; i < chunk.nnz; ++i, ++seen) {
            if (!admitTriplet(data[i], header.rows, header.cols,
                              nextKey))
                fatal("cbm: '" + path() +
                      "': " + payloadBreach(seen, data[i]));
            fn(data[i]);
        }
        file.dropPagesBefore(chunk.offset + chunk.nnz * tripletBytes);
    }
}

TripletMatrix
CbmReader::toTripletMatrix() const
{
    TripletMatrix matrix(header.rows, header.cols);
    scan([&matrix](const Triplet &t) {
        matrix.add(t.row, t.col, t.value);
    });
    matrix.finalize();
    return matrix;
}

} // namespace copernicus
