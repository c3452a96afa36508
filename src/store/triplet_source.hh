/**
 * @file
 * TripletSource: a re-scannable stream of canonical triplets.
 *
 * The streaming partitioner makes several bounded-memory passes over
 * its input, so it cannot take a one-shot iterator: it needs something
 * it can scan from the top repeatedly. The mmap-backed binary
 * container (CbmReader) is the source it serves; TripletMatrixSource
 * streams an in-memory TripletMatrix, so tests can drive the passes
 * over either representation. partition() does not go through this
 * interface: it hands its triplet array to the shared tile scatter
 * directly.
 *
 * Contract: scan() visits every non-zero exactly once in canonical
 * order — row-major, strictly increasing (row, col) — with in-range
 * coordinates and non-zero values, and every scan() visits the same
 * sequence. The partitioner relies on it without checking.
 * TripletMatrix::finalize() establishes that order, CbmWriter enforces
 * it on append, and CbmReader::scan() checks every stored triplet
 * against it and throws FatalError at the first breach, since a
 * container's payload comes from a file.
 */

#ifndef COPERNICUS_STORE_TRIPLET_SOURCE_HH
#define COPERNICUS_STORE_TRIPLET_SOURCE_HH

#include <cstdint>
#include <functional>

#include "common/status.hh"
#include "matrix/triplet_matrix.hh"

namespace copernicus {

/** Re-scannable canonical triplet stream (see file comment). */
class TripletSource
{
  public:
    virtual ~TripletSource() = default;

    virtual Index rows() const = 0;
    virtual Index cols() const = 0;

    /** Total non-zero count (known up front for pass planning). */
    virtual std::uint64_t nnz() const = 0;

    /** Visit every triplet in canonical order, front to back. */
    virtual void
    scan(const std::function<void(const Triplet &)> &fn) const = 0;
};

/** Adapter exposing a finalized TripletMatrix as a TripletSource. */
class TripletMatrixSource : public TripletSource
{
  public:
    /** @p matrix must be finalized and outlive the source. */
    explicit TripletMatrixSource(const TripletMatrix &matrix)
        : source(&matrix)
    {
        COPERNICUS_PANIC_IF(!matrix.finalized(),
                            "TripletMatrixSource requires a finalized matrix");
    }

    Index rows() const override { return source->rows(); }
    Index cols() const override { return source->cols(); }
    std::uint64_t nnz() const override { return source->nnz(); }

    void
    scan(const std::function<void(const Triplet &)> &fn) const override
    {
        for (const Triplet &t : source->triplets())
            fn(t);
    }

  private:
    const TripletMatrix *source;
};

} // namespace copernicus

#endif // COPERNICUS_STORE_TRIPLET_SOURCE_HH
