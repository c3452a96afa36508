/**
 * @file
 * Encoded-tile grammar validator.
 *
 * Every format's encoding obeys structural invariants the decoders and
 * cycle walkers silently rely on: CSR/CSC offsets are monotone
 * cumulative counts, COO tuples are sorted and deduplicated, ELL rows
 * are left-pushed with clean padding, BCSR blocks are aligned,
 * DIA offsets stay in range, JDS/SELL-C-sigma permutations are real
 * permutations. A violated invariant does not crash the pipeline — it
 * silently corrupts results downstream (the MatRaptor/SMASH failure
 * mode). validateEncodedTile() checks all of them on a real encoded
 * tile and reports each violation with a stable, format-qualified
 * invariant id ("csr.offsets.monotone") that copernicus_lint and the
 * mutation tests key on.
 *
 * timePartition (pipeline/stream_pipeline.hh), which prices every
 * partition for runPipeline, runEventSim, runParallel and planFormats,
 * validates every tile it encodes when grammarValidationEnabled() — a
 * process-wide toggle (COPERNICUS_VALIDATE=1 or
 * setGrammarValidationEnabled) that defaults off so the hot sweep
 * paths pay nothing. The daemon's validate_tile endpoint always
 * validates.
 */

#ifndef COPERNICUS_FORMATS_VALIDATE_HH
#define COPERNICUS_FORMATS_VALIDATE_HH

#include <string>
#include <vector>

#include "formats/encoded_tile.hh"

namespace copernicus {

/** One violated encoding invariant. */
struct GrammarViolation
{
    /** Format the offending tile is encoded in. */
    FormatKind format = FormatKind::Dense;

    /** Stable invariant id, e.g. "coo.order" or "ell.padding". */
    std::string invariant;

    /** Human-readable specifics (indices, observed values). */
    std::string detail;

    /** "[csr] csr.offsets.monotone: ..." */
    std::string toString() const;
};

/** All violations found in one encoded tile. */
struct GrammarReport
{
    std::vector<GrammarViolation> violations;

    bool ok() const { return violations.empty(); }

    /** One line per violation. */
    std::string toString() const;
};

/**
 * Check @p encoded against its format's grammar.
 *
 * Pure structural validation: only the encoded arrays are consulted,
 * never a decoded tile, so it runs on encodings whose source tile is
 * unavailable.
 */
GrammarReport validateEncodedTile(const EncodedTile &encoded);

/**
 * Whether timePartition should validate the tiles it encodes.
 * Defaults to the COPERNICUS_VALIDATE environment toggle (unset/0 =
 * off); setGrammarValidationEnabled overrides it.
 */
bool grammarValidationEnabled();

/** Process-wide override of grammarValidationEnabled(). */
void setGrammarValidationEnabled(bool enabled);

} // namespace copernicus

#endif // COPERNICUS_FORMATS_VALIDATE_HH
