/**
 * @file
 * SweepJournal: crash-safe checkpoint/resume for Study sweeps.
 *
 * A full characterization sweep over a SuiteSparse-scale container is
 * hours of work; a killed daemon or a deploy restart should not throw
 * it away. The journal is a newline-delimited JSON file: one header
 * line binding it to the exact input (matrix content hash + container
 * epoch + sweep configuration fingerprint), then one line per
 * completed (workload, format, partition size) design point carrying
 * the full StudyRow. Every record is flushed as it is written, so a
 * SIGKILL loses at most the design point in flight.
 *
 * Exactness: numeric row fields roundtrip losslessly — 64-bit
 * counters are serialized as decimal strings (JSON numbers are
 * doubles and would clip past 2^53) and doubles use the repo's
 * shortest-exact writer — so a resumed sweep's CSV is byte-identical
 * to an uninterrupted run's.
 *
 * Staleness: opening a journal whose identity line disagrees with the
 * current input throws FatalError naming which component (matrix
 * hash, epoch, config) diverged. A torn trailing line from a kill
 * mid-write is tolerated and the interrupted cell is recomputed.
 */

#ifndef COPERNICUS_STORE_SWEEP_JOURNAL_HH
#define COPERNICUS_STORE_SWEEP_JOURNAL_HH

#include <cstdint>
#include <fstream>
#include <map>
#include <string>
#include <tuple>
#include <vector>

#include "common/mutex.hh"
#include "core/study.hh"

namespace copernicus {

/** What a journal is bound to; any mismatch on open is fatal. */
struct JournalIdentity
{
    /** Combined content hash of every workload (workloadSetHash). */
    std::uint64_t matrixHash = 0;

    /** Container epoch (0 for generated/in-memory workloads). */
    std::uint64_t matrixEpoch = 0;

    /** Sweep configuration fingerprint (sweepConfigHash). */
    std::uint64_t configHash = 0;
};

/**
 * Fingerprint of everything that prices a row: the partition sizes and
 * formats, in order, every codec hyperparameter (FormatParams) and
 * every platform parameter (HlsConfig, its DRAM timing included). Two
 * sweeps with the same fingerprint enumerate the same design points
 * for a given workload set and price them alike. Execution settings
 * (jobs, cancelCheck, journal) do not change a row and are left out.
 */
std::uint64_t sweepConfigHash(const StudyConfig &config);

/**
 * Fold (workload name, content hash) pairs into one identity hash.
 * Order-sensitive, matching Study's registration order.
 */
std::uint64_t workloadSetHash(
    const std::vector<std::pair<std::string, std::uint64_t>> &workloads);

/** Append-only checkpoint journal (see file comment). Thread-safe. */
class SweepJournal
{
  public:
    /**
     * Open or create the journal at @p path.
     *
     * An existing journal is validated against @p identity (FatalError
     * on mismatch) and its completed cells are loaded; a missing or
     * empty file is initialized with a fresh identity line.
     */
    SweepJournal(const std::string &path,
                 const JournalIdentity &identity);

    SweepJournal(const SweepJournal &) = delete;
    SweepJournal &operator=(const SweepJournal &) = delete;

    /** Cells restored from a pre-existing journal. */
    std::size_t resumedCells() const;

    /**
     * The completed row for a design point, or nullptr if it still
     * has to run. The pointer stays valid for the journal's lifetime.
     */
    const StudyRow *completed(const std::string &workload,
                              FormatKind format,
                              Index partitionSize) const;

    /** Append one finished design point and flush it to disk. */
    void record(const StudyRow &row);

    const std::string &path() const { return journalPath; }

  private:
    using CellKey = std::tuple<std::string, int, Index>;

    void load(const JournalIdentity &identity);

    std::string journalPath;
    mutable Mutex mutex{lock_rank::sweepJournal};
    std::ofstream out COPERNICUS_GUARDED_BY(mutex);
    std::map<CellKey, StudyRow> cells COPERNICUS_GUARDED_BY(mutex);
    std::size_t resumed COPERNICUS_GUARDED_BY(mutex) = 0;
};

} // namespace copernicus

#endif // COPERNICUS_STORE_SWEEP_JOURNAL_HH
