/**
 * @file
 * Worst-case on-chip buffer sizing (Section 2's "maximum length"
 * notes and Section 4.2's footnote: "these worst-case scenarios are
 * used for on-chip memory allocation").
 *
 * For an n x n partition the paper gives the allocation bounds per
 * format — CSR/CSC n^2 values and indices plus n offsets, COO 3n^2
 * tuple words, DIA (2n-1) diagonals of n+1 words, and so on. This
 * module encodes those bounds; tests check that no real encoding ever
 * exceeds its bound. The capacity pass sizes BRAM budgets by them and
 * the overflow pass bounds byte accounting by them (COP062). The BRAM
 * estimator's structural layer (structuralBram in resource_model.cc)
 * keeps its own bank arithmetic instead, for example the ELL family on
 * width-6 slabs and DOK on five arrays; the golden CSVs pin its
 * outputs.
 */

#ifndef COPERNICUS_FPGA_BUFFER_MODEL_HH
#define COPERNICUS_FPGA_BUFFER_MODEL_HH

#include <string>
#include <vector>

#include "formats/format_kind.hh"
#include "formats/registry.hh"
#include "common/types.hh"

namespace copernicus {

/** One worst-case-sized on-chip buffer. */
struct BufferRequirement
{
    /** Array name from the paper's listings ("values", "colInx", ...). */
    std::string array;

    /** Worst-case element count for a p x p partition. */
    Bytes maxElements = 0;

    /** Element width in bytes. */
    Bytes elementBytes = 4;

    /** Worst-case bits to allocate. */
    Bytes bits() const { return maxElements * elementBytes * 8; }
};

/**
 * The buffers format @p kind must allocate for p x p partitions, with
 * Section 2's worst-case lengths.
 */
std::vector<BufferRequirement> bufferRequirements(
    FormatKind kind, Index p,
    const FormatParams &params = FormatParams());

/** Sum of worst-case bits over all of a format's buffers. */
Bytes totalBufferBits(FormatKind kind, Index p,
                      const FormatParams &params = FormatParams());

} // namespace copernicus

#endif // COPERNICUS_FPGA_BUFFER_MODEL_HH
