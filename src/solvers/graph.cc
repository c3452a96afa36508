#include "solvers/graph.hh"

#include <limits>

#include "common/status.hh"
#include "matrix/csr_matrix.hh"

namespace copernicus {

BfsResult
bfs(const TripletMatrix &adjacency, Index source)
{
    COPERNICUS_FATAL_IF(adjacency.rows() != adjacency.cols(),
                        "bfs requires a square adjacency matrix");
    COPERNICUS_FATAL_IF(source >= adjacency.rows(), "bfs source out of range");
    const Index n = adjacency.rows();
    const CsrMatrix a(adjacency);

    BfsResult result;
    result.level.assign(n, bfsUnreached);
    result.level[source] = 0;
    result.reached = 1;

    std::vector<Index> frontier = {source};
    std::uint32_t depth = 0;
    const auto &ptr = a.rowPtr();
    const auto &inds = a.colIndices();
    while (!frontier.empty()) {
        ++depth;
        ++result.rounds;
        // next = (boolean) frontier x A, masked by unvisited — the
        // row-slice gather below is exactly that semiring SpMV.
        std::vector<Index> next;
        for (Index u : frontier) {
            for (std::size_t i = ptr[u]; i < ptr[u + 1]; ++i) {
                const Index v = inds[i];
                if (result.level[v] == bfsUnreached) {
                    result.level[v] = depth;
                    next.push_back(v);
                    ++result.reached;
                }
            }
        }
        frontier.swap(next);
    }
    return result;
}

double
ssspUnreached()
{
    return std::numeric_limits<double>::infinity();
}

SsspResult
sssp(const TripletMatrix &adjacency, Index source)
{
    COPERNICUS_FATAL_IF(adjacency.rows() != adjacency.cols(),
                        "sssp requires a square adjacency matrix");
    COPERNICUS_FATAL_IF(source >= adjacency.rows(),
                        "sssp source out of range");
    const Index n = adjacency.rows();

    SsspResult result;
    result.distance.assign(n, ssspUnreached());
    result.distance[source] = 0.0;

    // Bellman-Ford: each round is one (min, +) SpMV over the edge
    // list; stop early when no distance improves.
    for (Index round = 0; round < n; ++round) {
        ++result.rounds;
        bool improved = false;
        for (const auto &t : adjacency.triplets()) {
            const double base = result.distance[t.row];
            if (base == ssspUnreached())
                continue;
            const double candidate = base + static_cast<double>(t.value);
            if (candidate < result.distance[t.col]) {
                result.distance[t.col] = candidate;
                improved = true;
            }
        }
        if (!improved)
            return result;
    }

    // A full n rounds without convergence: check for negative cycles.
    for (const auto &t : adjacency.triplets()) {
        const double base = result.distance[t.row];
        if (base != ssspUnreached() &&
            base + static_cast<double>(t.value) <
                result.distance[t.col]) {
            result.valid = false;
            break;
        }
    }
    return result;
}

} // namespace copernicus
