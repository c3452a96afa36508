#include "solvers/cg.hh"

#include <cmath>

#include "common/status.hh"
#include "trace/span.hh"

namespace copernicus {

namespace {

double
norm2(const std::vector<Value> &v)
{
    double acc = 0;
    for (Value x : v)
        acc += static_cast<double>(x) * x;
    return std::sqrt(acc);
}

double
dot(const std::vector<Value> &a, const std::vector<Value> &b)
{
    double acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += static_cast<double>(a[i]) * b[i];
    return acc;
}

} // namespace

SolveResult
conjugateGradient(const CsrMatrix &a, const std::vector<Value> &b,
                  double tolerance, std::size_t maxIterations)
{
    COPERNICUS_FATAL_IF(a.rows() != a.cols(), "CG requires a square matrix");
    COPERNICUS_FATAL_IF(b.size() != a.rows(),
                        "CG right-hand-side length mismatch");

    const ScopedSpan span("solver.cg", "solver");

    const std::size_t n = b.size();
    SolveResult result;
    result.x.assign(n, Value(0));

    std::vector<Value> r = b;          // r = b - A*0
    std::vector<Value> p = r;
    double rs_old = dot(r, r);

    for (std::size_t iter = 0; iter < maxIterations; ++iter) {
        result.residual = std::sqrt(rs_old);
        if (result.residual < tolerance) {
            result.converged = true;
            return result;
        }
        const std::vector<Value> ap = a.multiply(p);
        const double denom = dot(p, ap);
        COPERNICUS_FATAL_IF(denom == 0.0,
                            "CG breakdown: matrix is not positive-definite");
        const double alpha = rs_old / denom;
        for (std::size_t i = 0; i < n; ++i) {
            result.x[i] += static_cast<Value>(alpha * p[i]);
            r[i] -= static_cast<Value>(alpha * ap[i]);
        }
        const double rs_new = dot(r, r);
        const double beta = rs_new / rs_old;
        for (std::size_t i = 0; i < n; ++i)
            p[i] = r[i] + static_cast<Value>(beta * p[i]);
        rs_old = rs_new;
        result.iterations = iter + 1;
    }
    result.residual = norm2(r);
    result.converged = result.residual < tolerance;
    return result;
}

SolveResult
jacobi(const CsrMatrix &a, const std::vector<Value> &b, double tolerance,
       std::size_t maxIterations)
{
    COPERNICUS_FATAL_IF(a.rows() != a.cols(),
                        "Jacobi requires a square matrix");
    COPERNICUS_FATAL_IF(b.size() != a.rows(),
                        "Jacobi right-hand-side length mismatch");

    const Index n = a.rows();
    std::vector<Value> diag(n, Value(0));
    const auto &ptr = a.rowPtr();
    const auto &inds = a.colIndices();
    const auto &vals = a.values();
    for (Index r = 0; r < n; ++r)
        for (std::size_t i = ptr[r]; i < ptr[r + 1]; ++i)
            if (inds[i] == r)
                diag[r] = vals[i];
    for (Index r = 0; r < n; ++r)
        COPERNICUS_FATAL_IF(diag[r] == Value(0),
                            "Jacobi requires a non-zero diagonal");

    SolveResult result;
    result.x.assign(n, Value(0));
    std::vector<Value> next(n);
    for (std::size_t iter = 0; iter < maxIterations; ++iter) {
        for (Index r = 0; r < n; ++r) {
            Value acc = b[r];
            for (std::size_t i = ptr[r]; i < ptr[r + 1]; ++i)
                if (inds[i] != r)
                    acc -= vals[i] * result.x[inds[i]];
            next[r] = acc / diag[r];
        }
        result.x.swap(next);
        result.iterations = iter + 1;

        // Residual check: r = b - A x.
        const auto ax = a.multiply(result.x);
        double acc = 0;
        for (Index r = 0; r < n; ++r) {
            const double d = static_cast<double>(b[r]) - ax[r];
            acc += d * d;
        }
        result.residual = std::sqrt(acc);
        if (result.residual < tolerance) {
            result.converged = true;
            return result;
        }
    }
    return result;
}

} // namespace copernicus
