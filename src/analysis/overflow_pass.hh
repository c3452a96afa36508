/**
 * @file
 * Symbolic range / overflow analysis over the schedule IR and the
 * buffer model (rules COP060-063).
 *
 * The cycle and byte accounting runs in uint64 (Cycles, Bytes). This
 * pass proves that stays safe up to a declared workload envelope — by
 * default p = 4096 tiles and a 10^9-non-zero aggregate — instead of
 * assuming it:
 *
 *  - COP060: the accounting typedefs themselves must be unsigned and
 *    at least 64 bits wide.
 *  - COP061: every format's closed-form cycle fold is evaluated in
 *    unsigned __int128 with every schedule feature pinned to its
 *    envelope maximum. The fold is the model's own template
 *    (closedFormCycles<unsigned __int128> in hls/schedule_ir.hh), not
 *    a copy of it, so a rule change there is proven here unchanged. A
 *    per-tile result above UINT64_MAX is an error (the uint64 fold
 *    would silently wrap); the aggregate over the envelope's tile
 *    count must keep 8x headroom or a warning is raised. A spec whose
 *    folding ever goes super-linear in `entries` fails here loudly.
 *  - COP062: the same treatment for byte accounting. A tile's
 *    worst-case bytes are the buffer model's Section 2 allocation
 *    (totalBufferBits() / 8 in fpga/buffer_model.hh), the bound every
 *    encoding fits (BufferBoundTest) and the capacity pass sizes BRAM
 *    by. They are checked against a generous linear bound (64 bytes
 *    per matrix position) and their aggregate against uint64.
 *  - COP063: a textual scan of the accounting hot files for narrowing
 *    casts (static_cast to Index/int/unsigned/uint32_t): a 64-bit
 *    count squeezed through a 32-bit intermediate defeats the range
 *    proof above, so the models must compute natively wide.
 *
 * Formats whose codec rejects the hyperparameters are skipped (the
 * contract pass reports them, COP021). The source scan needs a
 * checkout; it skips silently when the source root does not exist (a
 * deployed daemon has no source tree).
 */

#ifndef COPERNICUS_ANALYSIS_OVERFLOW_PASS_HH
#define COPERNICUS_ANALYSIS_OVERFLOW_PASS_HH

#include <string>

#include "analysis/schedule_check.hh"

namespace copernicus {

/** The workload envelope the uint64 accounting is proven against. */
struct AccountingEnvelope
{
    /** Largest partition edge length the proof covers. */
    Index maxPartition = 4096;

    /** Largest aggregate non-zero count across one workload. */
    std::uint64_t maxWorkloadNnz = 1'000'000'000;
};

/** COP060 + COP061 + COP062 over every format at @p envelope. */
void checkAccountingRanges(const LintOptions &options,
                           const AccountingEnvelope &envelope,
                           LintReport &report);

/**
 * COP063 over one file's contents (exposed so the seeded-defect tests
 * can inject mutated sources). @p path is used only for reporting.
 * Lines carrying a `lint: widening-ok` marker are exempt.
 */
void scanForNarrowingCasts(const std::string &path,
                           const std::string &contents,
                           LintReport &report);

/**
 * The whole pass: range checks at the default envelope plus the
 * narrowing-cast scan over the accounting hot files under
 * options.sourceRoot (or the compiled-in checkout when empty).
 */
void runOverflowPass(const LintOptions &options, LintReport &report);

} // namespace copernicus

#endif // COPERNICUS_ANALYSIS_OVERFLOW_PASS_HH
