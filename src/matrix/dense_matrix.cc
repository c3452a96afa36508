#include "matrix/dense_matrix.hh"

#include <string>

#include "common/status.hh"

namespace copernicus {

DenseMatrix::DenseMatrix(Index rows, Index cols)
    : _rows(rows), _cols(cols),
      store(static_cast<std::size_t>(rows) * cols, Value(0))
{
    COPERNICUS_FATAL_IF(rows == 0 || cols == 0,
                        "DenseMatrix dimensions must be positive");
}

Value &
DenseMatrix::operator()(Index row, Index col)
{
    COPERNICUS_PANIC_IF(
        row >= _rows || col >= _cols,
        "DenseMatrix access out of range (" + std::to_string(row) +
        ", " + std::to_string(col) + ")");
    return store[static_cast<std::size_t>(row) * _cols + col];
}

Value
DenseMatrix::operator()(Index row, Index col) const
{
    COPERNICUS_PANIC_IF(
        row >= _rows || col >= _cols,
        "DenseMatrix access out of range (" + std::to_string(row) +
        ", " + std::to_string(col) + ")");
    return store[static_cast<std::size_t>(row) * _cols + col];
}

std::size_t
DenseMatrix::nnz() const
{
    std::size_t count = 0;
    for (Value v : store)
        count += v != Value(0);
    return count;
}

bool
DenseMatrix::rowIsZero(Index row) const
{
    return rowNnz(row) == 0;
}

Index
DenseMatrix::rowNnz(Index row) const
{
    COPERNICUS_PANIC_IF(row >= _rows, "DenseMatrix::rowNnz row out of range");
    Index count = 0;
    for (Index c = 0; c < _cols; ++c)
        count += (*this)(row, c) != Value(0);
    return count;
}

bool
operator==(const DenseMatrix &a, const DenseMatrix &b)
{
    return a._rows == b._rows && a._cols == b._cols && a.store == b.store;
}

} // namespace copernicus
