#include "solvers/pagerank.hh"

#include <cmath>

#include "common/status.hh"
#include "trace/span.hh"

namespace copernicus {

PageRankResult
pageRank(const TripletMatrix &adjacency, double damping, double tolerance,
         std::size_t maxIterations)
{
    COPERNICUS_FATAL_IF(adjacency.rows() != adjacency.cols(),
                        "pageRank requires a square adjacency matrix");
    COPERNICUS_FATAL_IF(damping <= 0.0 || damping >= 1.0,
                        "pageRank damping must be in (0, 1)");

    const ScopedSpan span("solver.pagerank", "solver");
    const Index n = adjacency.rows();

    // Out-degree (weighted) per vertex.
    std::vector<double> out_weight(n, 0.0);
    for (const auto &t : adjacency.triplets())
        out_weight[t.row] += std::fabs(static_cast<double>(t.value));

    // Column-stochastic transition matrix M: M[v][u] = w(u,v)/out(u);
    // ranks update as r' = d*M*r + teleport. Built transposed in CSR so
    // each iteration is one row-major SpMV.
    TripletMatrix transition(n, n);
    for (const auto &t : adjacency.triplets()) {
        if (out_weight[t.row] > 0) {
            transition.add(t.col, t.row,
                           static_cast<Value>(
                               std::fabs(static_cast<double>(t.value)) /
                               out_weight[t.row]));
        }
    }
    transition.finalize();
    const CsrMatrix m(transition);

    PageRankResult result;
    result.ranks.assign(n, 1.0 / n);
    std::vector<Value> rank_f(n, static_cast<Value>(1.0 / n));

    for (std::size_t iter = 0; iter < maxIterations; ++iter) {
        // Dangling mass: vertices with no out-edges spread uniformly.
        double dangling = 0;
        for (Index u = 0; u < n; ++u)
            if (out_weight[u] == 0)
                dangling += result.ranks[u];

        const auto spread = m.multiply(rank_f);
        const double teleport =
            (1.0 - damping) / n + damping * dangling / n;

        double delta = 0;
        double sum = 0;
        std::vector<double> next(n);
        for (Index v = 0; v < n; ++v) {
            next[v] = damping * static_cast<double>(spread[v]) + teleport;
            delta += std::fabs(next[v] - result.ranks[v]);
            sum += next[v];
        }
        // Renormalize against float drift.
        for (Index v = 0; v < n; ++v)
            next[v] /= sum;

        result.ranks.swap(next);
        for (Index v = 0; v < n; ++v)
            rank_f[v] = static_cast<Value>(result.ranks[v]);
        result.iterations = iter + 1;
        result.delta = delta;
        if (delta < tolerance) {
            result.converged = true;
            break;
        }
    }
    return result;
}

} // namespace copernicus
