#include "kernels/spmm.hh"

#include "common/status.hh"

namespace copernicus {

DenseMatrix
spmm(const CsrMatrix &a, const DenseMatrix &b)
{
    COPERNICUS_FATAL_IF(b.rows() != a.cols(),
                        "spmm: inner dimensions must agree");
    DenseMatrix c(a.rows(), b.cols());
    const auto &ptr = a.rowPtr();
    const auto &inds = a.colIndices();
    const auto &vals = a.values();
    for (Index r = 0; r < a.rows(); ++r) {
        for (std::size_t i = ptr[r]; i < ptr[r + 1]; ++i) {
            const Value v = vals[i];
            const Index k = inds[i];
            for (Index j = 0; j < b.cols(); ++j)
                c(r, j) += v * b(k, j);
        }
    }
    return c;
}

} // namespace copernicus
