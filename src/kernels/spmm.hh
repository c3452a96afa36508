/**
 * @file
 * Sparse-matrix / dense-matrix multiplication on a full-matrix CSR operand.
 *
 * Section 3.3 observes that the machine-learning workloads reduce to
 * SpMV or SpMM over the same dot-product engine; this kernel realizes
 * SpMM as one SpMV per right-hand-side column, which is exactly how the
 * streaming platform would batch it.
 */

#ifndef COPERNICUS_KERNELS_SPMM_HH
#define COPERNICUS_KERNELS_SPMM_HH

#include "matrix/csr_matrix.hh"
#include "matrix/dense_matrix.hh"

namespace copernicus {

/**
 * C = A * B for sparse A (CSR) and dense B.
 *
 * @param a Sparse left operand.
 * @param b Dense right operand; b.rows() must equal a.cols().
 * @return Dense product of shape a.rows() x b.cols().
 */
DenseMatrix spmm(const CsrMatrix &a, const DenseMatrix &b);

} // namespace copernicus

#endif // COPERNICUS_KERNELS_SPMM_HH
