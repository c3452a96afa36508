/**
 * @file
 * CBM: the Copernicus binary matrix container.
 *
 * A `.cbm` file is a finalized sparse matrix frozen on disk so that
 * SuiteSparse-scale inputs (100M+ non-zeros) can be swept repeatedly
 * without re-parsing MatrixMarket text or holding the triplet array in
 * RAM. The layout is mmap-friendly: fixed-width little-endian fields,
 * triplets stored packed in the canonical row-major order every other
 * layer already assumes, and a chunk directory that lets scans skip to
 * a row range without touching the bytes in between.
 *
 * File layout (all offsets from the start of the file):
 *
 *     [  0, 64)                 CbmHeader (see struct, 64 bytes)
 *     [ 64, 64 + 12*nnz)        nnz packed Triplet records, canonical
 *                               order, grouped into chunks of
 *                               chunkTargetNnz entries (last one short)
 *     [directoryOffset, ...)    chunkCount packed CbmChunkInfo records
 *
 * The content hash is FNV-1a over the packed triplet bytes, so a
 * container, a sweep journal and an in-memory matrix can all agree on
 * identity without a byte-for-byte compare (see common/fnv.hh). The
 * epoch is a caller-chosen generation number carried alongside the
 * hash; regenerating a container for "the same" logical matrix with
 * different content should bump it so stale journals fail loudly.
 */

#ifndef COPERNICUS_STORE_CONTAINER_HH
#define COPERNICUS_STORE_CONTAINER_HH

#include <cstdint>
#include <fstream>
#include <string>
#include <string_view>
#include <vector>

#include "common/mmap_file.hh"
#include "store/triplet_source.hh"

namespace copernicus {

// The container stores Triplet records verbatim; that is only sound
// if the struct is packed (no padding between the three 4-byte
// members) on every platform that reads or writes a .cbm file.
static_assert(sizeof(Triplet) == 2 * sizeof(Index) + sizeof(Value),
              "Triplet must be packed for container I/O");

/** Fixed 64-byte header at the start of every .cbm file. */
struct CbmHeader
{
    /** "CBM1" — identifies the file type before any other check. */
    char magic[4] = {'C', 'B', 'M', '1'};

    /** Layout version; readers reject anything but cbmVersion. */
    std::uint32_t version = 0;

    std::uint32_t rows = 0;
    std::uint32_t cols = 0;

    /** Total stored non-zeros. */
    std::uint64_t nnz = 0;

    /** Caller-chosen generation number (see file comment). */
    std::uint64_t epoch = 0;

    /** FNV-1a over the 12*nnz packed triplet bytes. */
    std::uint64_t contentHash = 0;

    /** Number of directory entries. */
    std::uint32_t chunkCount = 0;

    /** Triplets per chunk (every chunk but the last holds exactly
     *  this many). */
    std::uint32_t chunkTargetNnz = 0;

    /** File offset of the chunk directory. */
    std::uint64_t directoryOffset = 0;

    /** FNV-1a over the 56 header bytes above, pinned last so header
     *  corruption is distinguishable from payload corruption. */
    std::uint64_t headerHash = 0;
};

static_assert(sizeof(CbmHeader) == 64, "CbmHeader must pack to 64 bytes");

/** One chunk directory entry. */
struct CbmChunkInfo
{
    /** File offset of the chunk's first triplet. */
    std::uint64_t offset = 0;

    /** Triplets in this chunk. */
    std::uint64_t nnz = 0;

    /** Row of the chunk's first / last triplet (canonical order makes
     *  these the chunk's row extent). */
    std::uint32_t firstRow = 0;
    std::uint32_t lastRow = 0;
};

static_assert(sizeof(CbmChunkInfo) == 24,
              "CbmChunkInfo must pack to 24 bytes");

/** The layout version this build reads and writes. */
inline constexpr std::uint32_t cbmVersion = 1;

/** Default chunk granularity: 1M triplets = 12 MB per chunk. */
inline constexpr std::uint32_t cbmDefaultChunkNnz = 1u << 20;

/** FNV-1a over the header fields covered by headerHash. */
std::uint64_t cbmHeaderHash(const CbmHeader &header);

/** Content hash of a finalized matrix; equals the hash a container
 *  written from the same matrix stores in its header. */
std::uint64_t contentHashOf(const TripletMatrix &matrix);

/**
 * Streaming .cbm writer.
 *
 * append() takes triplets in canonical order (strictly increasing
 * (row, col), in-range, non-zero) and finish() seals the file with the
 * directory and header. The writer holds one chunk of bookkeeping, not
 * the matrix, so converting a 100M-nnz input is O(1) in memory.
 */
class CbmWriter
{
  public:
    /**
     * Start writing @p path, truncating any existing file.
     *
     * @param rows Matrix row count; must be positive.
     * @param cols Matrix column count; must be positive.
     * @param epoch Generation number stored in the header.
     * @param chunkTargetNnz Chunk granularity; must be positive.
     */
    CbmWriter(const std::string &path, Index rows, Index cols,
              std::uint64_t epoch,
              std::uint32_t chunkTargetNnz = cbmDefaultChunkNnz);

    ~CbmWriter();

    CbmWriter(const CbmWriter &) = delete;
    CbmWriter &operator=(const CbmWriter &) = delete;

    /** Append one triplet; FatalError on any ordering/range breach. */
    void append(const Triplet &t);

    /**
     * Seal the file: flush the last chunk, write the directory, then
     * the header. Idempotent guard: calling twice panics.
     *
     * @return The content hash now stored in the header.
     */
    std::uint64_t finish();

  private:
    void sealChunk();

    std::string path;
    std::ofstream out;
    CbmHeader header;
    std::vector<CbmChunkInfo> directory;
    std::uint64_t written = 0;
    std::uint64_t runningHash;
    bool havePrev = false;
    Triplet prev;
    CbmChunkInfo open_chunk;
    bool finished = false;
};

/** Write @p matrix (finalized) to @p path; returns the content hash. */
std::uint64_t writeCbmFile(const std::string &path,
                           const TripletMatrix &matrix,
                           std::uint64_t epoch,
                           std::uint32_t chunkTargetNnz =
                               cbmDefaultChunkNnz);

/** Validation issue classes reported by inspectCbmFile(). */
enum class CbmIssueKind
{
    /** Header invariant broken: magic, version, sizes, header hash
     *  (lint rule COP110). */
    Header,

    /** Chunk directory inconsistent: offsets, extents, counts
     *  (lint rule COP111). */
    Chunks,

    /** Stored content hash does not cover the payload bytes
     *  (lint rule COP112). */
    Hash,
};

/** One validation finding. */
struct CbmIssue
{
    CbmIssueKind kind = CbmIssueKind::Header;
    std::string message;
};

/** Stable lower-case name of @p kind ("header", "chunks", "hash"). */
std::string_view cbmIssueKindName(CbmIssueKind kind);

/**
 * Validate a .cbm file and list every invariant it breaks.
 *
 * The shallow checks (header + directory) always run; @p deep adds a
 * full payload scan verifying triplet order/bounds against the chunk
 * extents and recomputing the content hash. An unreadable or
 * truncated file yields issues rather than throwing.
 */
std::vector<CbmIssue> inspectCbmFile(const std::string &path,
                                     bool deep = true);

/**
 * Zero-copy reader over an mmap'd .cbm file.
 *
 * Opening validates the header and directory (shallow checks of
 * inspectCbmFile) and throws FatalError naming the first breach; the
 * payload is trusted until scanned. scan() walks the triplets in
 * place and releases consumed pages behind the cursor, so iterating a
 * container far larger than RAM keeps a bounded resident set.
 */
class CbmReader : public TripletSource
{
  public:
    explicit CbmReader(const std::string &path);

    Index rows() const override { return header.rows; }
    Index cols() const override { return header.cols; }
    std::uint64_t nnz() const override { return header.nnz; }

    std::uint64_t epoch() const { return header.epoch; }
    std::uint64_t contentHash() const { return header.contentHash; }
    std::uint32_t chunkCount() const { return header.chunkCount; }
    std::uint32_t chunkTargetNnz() const
    {
        return header.chunkTargetNnz;
    }
    const std::string &path() const { return file.path(); }
    const std::vector<CbmChunkInfo> &chunks() const { return directory; }

    /** Direct pointer to chunk @p i's packed triplets (zero-copy). */
    const Triplet *chunkData(std::uint32_t i) const;

    /**
     * Visit every triplet in canonical order. Consumed file pages are
     * released as the cursor advances (see MmapFile::dropPagesBefore),
     * bounding residency at ~one drop window regardless of file size.
     */
    void
    scan(const std::function<void(const Triplet &)> &fn) const override;

    /** Materialize the whole container in memory (small inputs). */
    TripletMatrix toTripletMatrix() const;

  private:
    mutable MmapFile file;
    CbmHeader header;
    std::vector<CbmChunkInfo> directory;
};

} // namespace copernicus

#endif // COPERNICUS_STORE_CONTAINER_HH
