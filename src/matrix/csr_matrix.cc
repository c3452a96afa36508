#include "matrix/csr_matrix.hh"

#include "common/status.hh"

namespace copernicus {

CsrMatrix::CsrMatrix(const TripletMatrix &matrix)
    : _rows(matrix.rows()), _cols(matrix.cols())
{
    COPERNICUS_PANIC_IF(!matrix.finalized(),
                        "CsrMatrix requires a finalized matrix");
    ptr.assign(_rows + 1, 0);
    inds.reserve(matrix.nnz());
    vals.reserve(matrix.nnz());
    for (const auto &t : matrix.triplets()) {
        ++ptr[t.row + 1];
        inds.push_back(t.col);
        vals.push_back(t.value);
    }
    for (Index r = 0; r < _rows; ++r)
        ptr[r + 1] += ptr[r];
}

std::vector<Value>
CsrMatrix::multiply(const std::vector<Value> &x) const
{
    COPERNICUS_FATAL_IF(x.size() != _cols,
                        "CsrMatrix::multiply dimension mismatch");
    std::vector<Value> y(_rows, Value(0));
    for (Index r = 0; r < _rows; ++r) {
        Value acc = 0;
        for (std::size_t i = ptr[r]; i < ptr[r + 1]; ++i)
            acc += vals[i] * x[inds[i]];
        y[r] = acc;
    }
    return y;
}

std::vector<Value>
CsrMatrix::multiplyTransposed(const std::vector<Value> &x) const
{
    COPERNICUS_FATAL_IF(x.size() != _rows,
                        "CsrMatrix::multiplyTransposed dimension mismatch");
    std::vector<Value> y(_cols, Value(0));
    for (Index r = 0; r < _rows; ++r)
        for (std::size_t i = ptr[r]; i < ptr[r + 1]; ++i)
            y[inds[i]] += vals[i] * x[r];
    return y;
}

} // namespace copernicus
