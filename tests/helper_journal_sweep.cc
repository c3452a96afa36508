/**
 * @file
 * Journaled-sweep helper for the kill/resume test.
 *
 * Runs a small deterministic Study with a SweepJournal and writes its
 * CSV. The driver (test_journal_kill_resume.cc) launches this binary,
 * SIGKILLs it mid-sweep, relaunches it against the same journal and
 * requires the final CSV to be byte-identical to an uninterrupted
 * run's. --slow-ms stretches each design point so there is a reliable
 * window to land the kill in.
 *
 *   helper_journal_sweep <journal> <csv>
 *       [--partitions 8,16] [--slow-ms N] [--stats FILE]
 *
 * --stats appends "resumed=<cells restored from the journal>" so the
 * driver can assert the second run actually skipped completed work.
 */

#include <chrono>
#include <cstdint>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "common/rng.hh"
#include "common/status.hh"
#include "core/study.hh"
#include "store/container.hh"
#include "store/sweep_journal.hh"
#include "workloads/generators.hh"

using namespace copernicus;

namespace {

std::vector<Index>
parsePartitions(const std::string &arg)
{
    std::vector<Index> sizes;
    std::istringstream in(arg);
    std::string token;
    while (std::getline(in, token, ','))
        sizes.push_back(static_cast<Index>(std::stoul(token)));
    COPERNICUS_FATAL_IF(sizes.empty(), "no partition sizes in '" + arg + "'");
    return sizes;
}

TripletMatrix
workloadMatrix(std::uint64_t seed, bool band)
{
    Rng rng(seed);
    TripletMatrix m =
        band ? bandMatrix(48, 4, rng) : randomMatrix(48, 0.1, rng);
    m.finalize();
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        std::string journalPath;
        std::string csvPath;
        std::string statsPath;
        std::string partitions = "8,16";
        long slowMs = 0;
        for (int i = 1; i < argc; ++i) {
            const std::string arg = argv[i];
            const auto next = [&] {
                COPERNICUS_FATAL_IF(i + 1 >= argc, arg + " needs a value");
                return std::string(argv[++i]);
            };
            if (arg == "--partitions")
                partitions = next();
            else if (arg == "--slow-ms")
                slowMs = std::stol(next());
            else if (arg == "--stats")
                statsPath = next();
            else if (journalPath.empty())
                journalPath = arg;
            else if (csvPath.empty())
                csvPath = arg;
            else
                fatal("unexpected argument '" + arg + "'");
        }
        COPERNICUS_FATAL_IF(
            journalPath.empty() || csvPath.empty(),
            "usage: helper_journal_sweep <journal> <csv> "
            "[--partitions 8,16] [--slow-ms N] [--stats FILE]");

        StudyConfig cfg;
        cfg.partitionSizes = parsePartitions(partitions);
        cfg.formats = {FormatKind::CSR, FormatKind::COO,
                       FormatKind::Dense};
        cfg.jobs = 1;
        if (slowMs > 0) {
            // Not a cancellation: the hook just stretches each design
            // point so the driver can land a SIGKILL mid-sweep.
            cfg.cancelCheck = [slowMs] {
                std::this_thread::sleep_for(
                    std::chrono::milliseconds(slowMs));
                return false;
            };
        }

        const TripletMatrix rand = workloadMatrix(0x5EED, false);
        const TripletMatrix band = workloadMatrix(0xBA4D, true);

        JournalIdentity identity;
        identity.matrixHash =
            workloadSetHash({{"rand", contentHashOf(rand)},
                             {"band", contentHashOf(band)}});
        identity.configHash = sweepConfigHash(cfg);
        cfg.journal =
            std::make_shared<SweepJournal>(journalPath, identity);
        const std::size_t resumed = cfg.journal->resumedCells();

        Study study(cfg);
        study.addWorkload("rand", rand);
        study.addWorkload("band", band);
        study.run().writeCsvFile(csvPath);

        if (!statsPath.empty()) {
            std::ofstream stats(statsPath, std::ios::app);
            stats << "resumed=" << resumed << "\n";
        }
        return 0;
    } catch (const FatalError &err) {
        std::cerr << "helper_journal_sweep: " << err.what() << "\n";
        return 1;
    }
}
