/**
 * @file
 * Worst-case on-chip buffer sizing (Section 2's "maximum length"
 * notes and Section 4.2's footnote: "these worst-case scenarios are
 * used for on-chip memory allocation"), and how each buffer is banked.
 *
 * For an n x n partition the paper gives the allocation bounds per
 * format — CSR/CSC n^2 values and indices plus n offsets, COO 3n^2
 * tuple words, DIA (2n-1) diagonals of n+1 words, and so on. This
 * module encodes those bounds; tests check that no real encoding ever
 * exceeds its bound. The capacity pass sizes BRAM budgets by them, the
 * overflow pass bounds byte accounting by them (COP062), and the
 * resource model counts BRAM_18K banks from them together with each
 * buffer's array_partition factor, so the buffers and their banking
 * are stated here only.
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

    /**
     * array_partition factor: the BRAM banks the decoder reads in
     * parallel (Section 5.2), each taking at least one BRAM_18K block.
     */
    Index banks = 1;

    /** Worst-case bits to allocate. */
    Bytes bits() const { return maxElements * elementBytes * 8; }

    bool operator==(const BufferRequirement &) const = default;
};

/**
 * The buffers format @p kind must allocate for p x p partitions, with
 * Section 2's worst-case lengths. Dense's and BCSR's values take one
 * bank per dot-engine lane (p); the ELL family's values and column
 * indices take one per slab column, min(ellMinWidth, p) or, for
 * ELL+COO, min(ellCooWidth, p), the width Listing 5's row sweep is
 * unrolled over. Every other buffer is one bank. Raises FatalError
 * when p is 0 or @p kind's codec rejects @p params
 * (formatParamsViolation()).
 */
std::vector<BufferRequirement> bufferRequirements(
    FormatKind kind, Index p,
    const FormatParams &params = FormatParams());

/** Sum of worst-case bits over all of a format's buffers. */
Bytes totalBufferBits(FormatKind kind, Index p,
                      const FormatParams &params = FormatParams());

} // namespace copernicus

#endif // COPERNICUS_FPGA_BUFFER_MODEL_HH
