#include "matrix/triplet_matrix.hh"

#include <algorithm>
#include <string>

#include "common/status.hh"
#include "matrix/dense_matrix.hh"

namespace copernicus {

TripletMatrix::TripletMatrix(Index rows, Index cols)
    : _rows(rows), _cols(cols)
{
    COPERNICUS_FATAL_IF(rows == 0 || cols == 0,
                        "TripletMatrix dimensions must be positive");
    _finalized = true; // an empty matrix is trivially sorted
}

void
TripletMatrix::add(Index row, Index col, Value value)
{
    COPERNICUS_PANIC_IF(row >= _rows || col >= _cols,
                        "TripletMatrix::add out-of-range entry (" +
                            std::to_string(row) + ", " +
                            std::to_string(col) + ")");
    entries.push_back({row, col, value});
    _finalized = false;
}

void
TripletMatrix::finalize()
{
    if (_finalized)
        return;
    const auto rowMajor = [](const Triplet &a, const Triplet &b) {
        return a.row != b.row ? a.row < b.row : a.col < b.col;
    };
    // Generators and MatrixMarket files mostly list their entries in
    // row-major order already. An O(n) scan that finds them strictly
    // increasing skips the sort; with repeats it still sorts, so their
    // summation order stays the sort's.
    const bool strictlySorted =
        std::adjacent_find(entries.begin(), entries.end(),
                           [&](const Triplet &a, const Triplet &b) {
                               return !rowMajor(a, b);
                           }) == entries.end();
    if (!strictlySorted)
        std::sort(entries.begin(), entries.end(), rowMajor);
    // Sum duplicates in place, then drop entries that cancelled to zero.
    std::size_t out = 0;
    for (std::size_t i = 0; i < entries.size();) {
        Triplet acc = entries[i];
        std::size_t j = i + 1;
        while (j < entries.size() && entries[j].row == acc.row &&
               entries[j].col == acc.col) {
            acc.value += entries[j].value;
            ++j;
        }
        if (acc.value != Value(0))
            entries[out++] = acc;
        i = j;
    }
    entries.resize(out);
    _finalized = true;
}

double
TripletMatrix::density() const
{
    return static_cast<double>(entries.size()) /
           (static_cast<double>(_rows) * static_cast<double>(_cols));
}

void
TripletMatrix::requireFinalized(const char *op) const
{
    COPERNICUS_PANIC_IF(
        !_finalized,
        std::string(op) + " requires a finalized TripletMatrix");
}

Value
TripletMatrix::at(Index row, Index col) const
{
    requireFinalized("at()");
    const Triplet probe{row, col, 0};
    auto it = std::lower_bound(
        entries.begin(), entries.end(), probe,
        [](const Triplet &a, const Triplet &b) {
            return a.row != b.row ? a.row < b.row : a.col < b.col;
        });
    if (it != entries.end() && it->row == row && it->col == col)
        return it->value;
    return 0;
}

std::pair<std::size_t, std::size_t>
TripletMatrix::rowRange(Index row) const
{
    requireFinalized("rowRange()");
    auto lessRow = [](const Triplet &a, Index r) { return a.row < r; };
    auto first = std::lower_bound(entries.begin(), entries.end(), row,
                                  lessRow);
    auto last = std::lower_bound(first, entries.end(), row + 1, lessRow);
    return {static_cast<std::size_t>(first - entries.begin()),
            static_cast<std::size_t>(last - entries.begin())};
}

DenseMatrix
TripletMatrix::toDense() const
{
    DenseMatrix dense(_rows, _cols);
    for (const auto &t : entries)
        dense(t.row, t.col) += t.value;
    return dense;
}

TripletMatrix
TripletMatrix::transposed() const
{
    TripletMatrix result(_cols, _rows);
    for (const auto &t : entries)
        result.add(t.col, t.row, t.value);
    result.finalize();
    return result;
}

bool
operator==(const TripletMatrix &a, const TripletMatrix &b)
{
    COPERNICUS_PANIC_IF(
        !a._finalized || !b._finalized,
        "operator== requires finalized TripletMatrix operands");
    return a._rows == b._rows && a._cols == b._cols &&
           a.entries == b.entries;
}

} // namespace copernicus
