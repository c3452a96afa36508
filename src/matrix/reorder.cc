#include "matrix/reorder.hh"

#include <algorithm>
#include <queue>

#include "common/status.hh"

namespace copernicus {

std::vector<Index>
reverseCuthillMcKee(const TripletMatrix &matrix)
{
    COPERNICUS_PANIC_IF(!matrix.finalized(),
                        "reverseCuthillMcKee requires a finalized matrix");
    COPERNICUS_FATAL_IF(matrix.rows() != matrix.cols(),
                        "reverseCuthillMcKee requires a square matrix");
    const Index n = matrix.rows();

    // Symmetrized adjacency (self-loops dropped).
    std::vector<std::vector<Index>> adj(n);
    for (const auto &t : matrix.triplets()) {
        if (t.row == t.col)
            continue;
        adj[t.row].push_back(t.col);
        adj[t.col].push_back(t.row);
    }
    for (auto &list : adj) {
        std::sort(list.begin(), list.end());
        list.erase(std::unique(list.begin(), list.end()), list.end());
    }

    std::vector<bool> visited(n, false);
    std::vector<Index> order;
    order.reserve(n);

    // Start order: ascending degree so each component begins at a
    // peripheral-ish vertex.
    std::vector<Index> starts(n);
    for (Index v = 0; v < n; ++v)
        starts[v] = v;
    std::sort(starts.begin(), starts.end(), [&](Index a, Index b) {
        return adj[a].size() != adj[b].size()
                   ? adj[a].size() < adj[b].size()
                   : a < b;
    });

    for (Index start : starts) {
        if (visited[start])
            continue;
        std::queue<Index> frontier;
        frontier.push(start);
        visited[start] = true;
        while (!frontier.empty()) {
            const Index v = frontier.front();
            frontier.pop();
            order.push_back(v);
            // Enqueue unvisited neighbours in ascending degree.
            std::vector<Index> next;
            for (Index u : adj[v])
                if (!visited[u])
                    next.push_back(u);
            std::sort(next.begin(), next.end(), [&](Index a, Index b) {
                return adj[a].size() != adj[b].size()
                           ? adj[a].size() < adj[b].size()
                           : a < b;
            });
            for (Index u : next) {
                visited[u] = true;
                frontier.push(u);
            }
        }
    }

    std::reverse(order.begin(), order.end());
    return order;
}

TripletMatrix
permuteSymmetric(const TripletMatrix &matrix,
                 const std::vector<Index> &perm)
{
    COPERNICUS_PANIC_IF(!matrix.finalized(),
                        "permuteSymmetric requires a finalized matrix");
    COPERNICUS_FATAL_IF(matrix.rows() != matrix.cols(),
                        "permuteSymmetric requires a square matrix");
    COPERNICUS_FATAL_IF(perm.size() != matrix.rows(),
                        "permutation length must match the matrix dimension");

    // Invert: old index -> new index.
    std::vector<Index> inverse(perm.size());
    std::vector<bool> seen(perm.size(), false);
    for (Index new_index = 0; new_index < perm.size(); ++new_index) {
        const Index old_index = perm[new_index];
        COPERNICUS_FATAL_IF(old_index >= perm.size() || seen[old_index],
                            "permuteSymmetric: perm is not a permutation");
        seen[old_index] = true;
        inverse[old_index] = new_index;
    }

    TripletMatrix result(matrix.rows(), matrix.cols());
    for (const auto &t : matrix.triplets())
        result.add(inverse[t.row], inverse[t.col], t.value);
    result.finalize();
    return result;
}

TripletMatrix
rcmReorder(const TripletMatrix &matrix)
{
    return permuteSymmetric(matrix, reverseCuthillMcKee(matrix));
}

} // namespace copernicus
