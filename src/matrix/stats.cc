#include "matrix/stats.hh"

#include <cstdlib>

#include "common/status.hh"

namespace copernicus {

MatrixStats
computeStats(const TripletMatrix &matrix)
{
    COPERNICUS_PANIC_IF(!matrix.finalized(),
                        "computeStats requires finalized matrix");

    MatrixStats stats;
    stats.rows = matrix.rows();
    stats.cols = matrix.cols();
    stats.nnz = matrix.nnz();
    stats.density = matrix.density();

    // One flag per diagonal col - row, shifted by rows - 1 so the
    // lowest (bottom-left corner) is slot 0 and the highest (top-right
    // corner) slot rows + cols - 2.
    const std::size_t rows = matrix.rows();
    std::vector<char> occupied(
        matrix.nnz() == 0 ? 0 : rows + matrix.cols() - 1, 0);
    std::size_t diag_nnz = 0;
    std::vector<Index> row_nnz(matrix.rows(), 0);
    for (const auto &t : matrix.triplets()) {
        ++row_nnz[t.row];
        const std::int64_t d = static_cast<std::int64_t>(t.col) -
                               static_cast<std::int64_t>(t.row);
        char &flag = occupied[rows - 1 - t.row + t.col];
        stats.nonZeroDiagonals += flag == 0;
        flag = 1;
        diag_nnz += d == 0;
        const Index dist = static_cast<Index>(std::llabs(d));
        stats.bandwidth = std::max(stats.bandwidth, dist);
    }
    stats.diagonalFraction =
        stats.nnz == 0 ? 0.0
                       : static_cast<double>(diag_nnz) / stats.nnz;

    for (Index nnz : row_nnz) {
        stats.maxRowNnz = std::max(stats.maxRowNnz, nnz);
        stats.nonZeroRows += nnz != 0;
    }
    stats.meanRowNnz = stats.rows == 0
                           ? 0.0
                           : static_cast<double>(stats.nnz) / stats.rows;
    return stats;
}

std::map<Index, std::size_t>
rowNnzHistogram(const TripletMatrix &matrix)
{
    COPERNICUS_PANIC_IF(!matrix.finalized(),
                        "rowNnzHistogram requires a finalized matrix");
    std::vector<Index> row_nnz(matrix.rows(), 0);
    for (const auto &t : matrix.triplets())
        ++row_nnz[t.row];
    std::map<Index, std::size_t> histogram;
    for (Index nnz : row_nnz)
        ++histogram[nnz];
    return histogram;
}

std::array<std::size_t, 10>
tileDensityDeciles(const Partitioning &parts)
{
    std::array<std::size_t, 10> deciles{};
    const double cells = static_cast<double>(parts.partitionSize) *
                         parts.partitionSize;
    for (const Tile &tile : parts.tiles) {
        const double density = tile.nnz() / cells;
        auto bucket = static_cast<std::size_t>(density * 10.0);
        if (bucket >= deciles.size())
            bucket = deciles.size() - 1; // density exactly 1
        ++deciles[bucket];
    }
    return deciles;
}

PartitionStats
computePartitionStats(const Partitioning &parts)
{
    PartitionStats stats;
    stats.partitionSize = parts.partitionSize;
    stats.nonZeroTiles = parts.tiles.size();
    stats.zeroTiles = parts.zeroTiles;

    if (parts.tiles.empty())
        return stats;

    const double cells = static_cast<double>(parts.partitionSize) *
                         parts.partitionSize;
    double density_sum = 0;
    double row_density_sum = 0;
    double nnz_row_sum = 0;
    for (const Tile &tile : parts.tiles) {
        const Index nnz = tile.nnz();
        const Index nnz_rows = tile.nnzRows();
        density_sum += nnz / cells;
        // Density within the non-zero rows only (Fig. 3b).
        row_density_sum += static_cast<double>(nnz) /
                           (static_cast<double>(nnz_rows) *
                            parts.partitionSize);
        nnz_row_sum += static_cast<double>(nnz_rows) /
                       parts.partitionSize;
    }
    const double count = static_cast<double>(parts.tiles.size());
    stats.avgPartitionDensity = density_sum / count;
    stats.avgRowDensity = row_density_sum / count;
    stats.avgNonZeroRowFraction = nnz_row_sum / count;
    return stats;
}

PartitionStats
computePartitionStats(const TripletMatrix &matrix, Index partitionSize)
{
    return computePartitionStats(partition(matrix, partitionSize));
}

} // namespace copernicus
