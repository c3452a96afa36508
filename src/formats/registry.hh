/**
 * @file
 * FormatRegistry: owns one configured codec per format.
 *
 * Codec hyperparameters (BCSR block, ELL minimum width, SELL slice
 * height, ELL+COO width, SELL-C-sigma window) come from a FormatParams
 * bundle whose defaults are the paper's choices; benches that ablate a
 * parameter construct their own registry. Each parameterized codec
 * states its precondition once, as the check its constructor raises
 * on; formatParamsViolation() reads that check without building a
 * codec, so the static analyzer reports exactly what the registry
 * would refuse.
 */

#ifndef COPERNICUS_FORMATS_REGISTRY_HH
#define COPERNICUS_FORMATS_REGISTRY_HH

#include <memory>
#include <string>
#include <vector>

#include "formats/codec.hh"

namespace copernicus {

/** Codec hyperparameters; defaults match Sections 2 and 4.2. */
struct FormatParams
{
    /** BCSR block edge length b. */
    Index bcsrBlock = 4;

    /** ELL compressed-width floor. */
    Index ellMinWidth = 6;

    /** SELL slice height C. */
    Index sellSlice = 4;

    /** ELL-part width of the ELL+COO hybrid. */
    Index ellCooWidth = 2;

    /** SELL-C-sigma sorting window (multiple of sellSlice). */
    Index sellCsWindow = 8;
};

/** Owns one codec instance per FormatKind. */
class FormatRegistry
{
  public:
    /**
     * Build all codecs with the given hyperparameters. Raises
     * FatalError with formatParamsViolation()'s message when a format
     * rejects them.
     */
    explicit FormatRegistry(const FormatParams &params = FormatParams());

    /** The codec for @p kind; every FormatKind is registered. */
    const FormatCodec &codec(FormatKind kind) const;

  private:
    std::vector<std::unique_ptr<FormatCodec>> codecs;
};

/**
 * Why @p kind's codec rejects @p params (the check its constructor
 * raises on), or "" when it admits them. Formats without
 * hyperparameters admit every bundle.
 */
std::string formatParamsViolation(const FormatParams &params,
                                  FormatKind kind);

/** Process-wide registry with default (paper) hyperparameters. */
const FormatRegistry &defaultRegistry();

/** Shorthand for defaultRegistry().codec(kind). */
const FormatCodec &defaultCodec(FormatKind kind);

} // namespace copernicus

#endif // COPERNICUS_FORMATS_REGISTRY_HH
