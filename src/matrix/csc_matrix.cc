#include "matrix/csc_matrix.hh"

#include "common/status.hh"

namespace copernicus {

void
CscMatrix::buildFromSortedColumns(Index rows, Index cols,
                                  const std::vector<Index> &row_inds,
                                  const std::vector<Index> &col_inds,
                                  const std::vector<Value> &values)
{
    _rows = rows;
    _cols = cols;
    ptr.assign(cols + 1, 0);
    for (Index c : col_inds)
        ++ptr[c + 1];
    for (Index c = 0; c < cols; ++c)
        ptr[c + 1] += ptr[c];

    inds.resize(values.size());
    vals.resize(values.size());
    std::vector<std::size_t> cursor(ptr.begin(), ptr.end() - 1);
    for (std::size_t i = 0; i < values.size(); ++i) {
        const std::size_t at = cursor[col_inds[i]]++;
        inds[at] = row_inds[i];
        vals[at] = values[i];
    }
}

CscMatrix::CscMatrix(const TripletMatrix &matrix)
{
    COPERNICUS_PANIC_IF(!matrix.finalized(),
                        "CscMatrix requires a finalized matrix");
    std::vector<Index> row_inds, col_inds;
    std::vector<Value> values;
    row_inds.reserve(matrix.nnz());
    col_inds.reserve(matrix.nnz());
    values.reserve(matrix.nnz());
    // Triplets come row-major; the counting sort below is stable, so
    // rows stay sorted inside each column.
    for (const auto &t : matrix.triplets()) {
        row_inds.push_back(t.row);
        col_inds.push_back(t.col);
        values.push_back(t.value);
    }
    buildFromSortedColumns(matrix.rows(), matrix.cols(), row_inds,
                           col_inds, values);
}

CscMatrix::CscMatrix(const CsrMatrix &csr)
{
    std::vector<Index> row_inds;
    row_inds.reserve(csr.nnz());
    for (Index r = 0; r < csr.rows(); ++r) {
        for (std::size_t i = csr.rowPtr()[r]; i < csr.rowPtr()[r + 1];
             ++i) {
            row_inds.push_back(r);
        }
    }
    buildFromSortedColumns(csr.rows(), csr.cols(), row_inds,
                           csr.colIndices(), csr.values());
}

std::vector<Value>
CscMatrix::multiply(const std::vector<Value> &x) const
{
    COPERNICUS_FATAL_IF(x.size() != _cols,
                        "CscMatrix::multiply dimension mismatch");
    std::vector<Value> y(_rows, Value(0));
    for (Index c = 0; c < _cols; ++c)
        for (std::size_t i = ptr[c]; i < ptr[c + 1]; ++i)
            y[inds[i]] += vals[i] * x[c];
    return y;
}

TripletMatrix
CscMatrix::toTriplets() const
{
    TripletMatrix matrix(_rows, _cols);
    for (Index c = 0; c < _cols; ++c)
        for (std::size_t i = ptr[c]; i < ptr[c + 1]; ++i)
            matrix.add(inds[i], c, vals[i]);
    matrix.finalize();
    return matrix;
}

CsrMatrix
toCsr(const CscMatrix &csc)
{
    return CsrMatrix(csc.toTriplets());
}

} // namespace copernicus
