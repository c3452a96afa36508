#include "workloads/generators.hh"

#include <algorithm>
#include <cmath>
#include <unordered_set>

#include "common/status.hh"

namespace copernicus {

namespace {

/** Non-zero magnitude: uniform in [0.5, 1.5) so sums never cancel. */
Value
drawValue(Rng &rng)
{
    return static_cast<Value>(rng.range(0.5, 1.5));
}

std::uint64_t
cellKey(Index r, Index c)
{
    return (static_cast<std::uint64_t>(r) << 32) | c;
}

} // namespace

TripletMatrix
randomMatrix(Index n, double density, Rng &rng)
{
    COPERNICUS_FATAL_IF(density < 0.0 || density > 1.0,
                        "randomMatrix density must be in [0, 1]");
    TripletMatrix matrix(n, n);
    const double cells = static_cast<double>(n) * n;
    if (density >= 0.05) {
        // Dense enough that a full Bernoulli sweep is the cheap path.
        for (Index r = 0; r < n; ++r)
            for (Index c = 0; c < n; ++c)
                if (rng.chance(density))
                    matrix.add(r, c, drawValue(rng));
    } else {
        const auto target =
            static_cast<std::size_t>(std::llround(cells * density));
        std::unordered_set<std::uint64_t> seen;
        seen.reserve(target * 2);
        while (seen.size() < target) {
            const Index r = static_cast<Index>(rng.below(n));
            const Index c = static_cast<Index>(rng.below(n));
            if (seen.insert(cellKey(r, c)).second)
                matrix.add(r, c, drawValue(rng));
        }
    }
    matrix.finalize();
    return matrix;
}

TripletMatrix
bandMatrix(Index n, Index k, Rng &rng, double fill)
{
    COPERNICUS_FATAL_IF(k == 0, "band width must be positive");
    TripletMatrix matrix(n, n);
    // a(i,j) = 0 when |i - j| > k/2, i.e. kept when 2|i - j| <= k.
    const Index half = k / 2;
    // Reserve the band's entry bound: n rows of at most 2*half + 1
    // entries. Growing by doubling instead frees a run of multi-megabyte
    // buffers, after which glibc raises its mmap threshold: later large
    // buffers then stay in the thread arenas and raise peak RSS.
    matrix.reserve(std::size_t(n) *
                   std::min<std::size_t>(2 * std::size_t(half) + 1, n));
    for (Index r = 0; r < n; ++r) {
        const Index c_begin = r > half ? r - half : 0;
        const Index c_end = std::min<Index>(n, r + half + 1);
        for (Index c = c_begin; c < c_end; ++c)
            if (fill >= 1.0 || rng.chance(fill))
                matrix.add(r, c, drawValue(rng));
    }
    matrix.finalize();
    return matrix;
}

TripletMatrix
diagonalMatrix(Index n, Rng &rng)
{
    return bandMatrix(n, 1, rng, 1.0);
}

TripletMatrix
stencil2d(Index nx, Index ny)
{
    const Index n = nx * ny;
    TripletMatrix matrix(n, n);
    auto at = [nx](Index x, Index y) { return y * nx + x; };
    for (Index y = 0; y < ny; ++y) {
        for (Index x = 0; x < nx; ++x) {
            const Index i = at(x, y);
            matrix.add(i, i, Value(4));
            if (x > 0)
                matrix.add(i, at(x - 1, y), Value(-1));
            if (x + 1 < nx)
                matrix.add(i, at(x + 1, y), Value(-1));
            if (y > 0)
                matrix.add(i, at(x, y - 1), Value(-1));
            if (y + 1 < ny)
                matrix.add(i, at(x, y + 1), Value(-1));
        }
    }
    matrix.finalize();
    return matrix;
}

TripletMatrix
stencil3d(Index g, bool box)
{
    const Index n = g * g * g;
    TripletMatrix matrix(n, n);
    auto at = [g](Index x, Index y, Index z) {
        return (z * g + y) * g + x;
    };
    for (Index z = 0; z < g; ++z) {
        for (Index y = 0; y < g; ++y) {
            for (Index x = 0; x < g; ++x) {
                const Index i = at(x, y, z);
                for (int dz = -1; dz <= 1; ++dz) {
                    for (int dy = -1; dy <= 1; ++dy) {
                        for (int dx = -1; dx <= 1; ++dx) {
                            const int manhattan = std::abs(dx) +
                                                  std::abs(dy) +
                                                  std::abs(dz);
                            if (!box && manhattan > 1)
                                continue;
                            const auto nx = static_cast<std::int64_t>(x) +
                                            dx;
                            const auto ny = static_cast<std::int64_t>(y) +
                                            dy;
                            const auto nz = static_cast<std::int64_t>(z) +
                                            dz;
                            if (nx < 0 || ny < 0 || nz < 0 || nx >= g ||
                                ny >= g || nz >= g) {
                                continue;
                            }
                            const Index j = at(static_cast<Index>(nx),
                                               static_cast<Index>(ny),
                                               static_cast<Index>(nz));
                            matrix.add(i, j,
                                       i == j ? Value(box ? 26 : 6)
                                              : Value(-1));
                        }
                    }
                }
            }
        }
    }
    matrix.finalize();
    return matrix;
}

TripletMatrix
rmatGraph(Index n, std::size_t edges, Rng &rng, double a, double b,
          double c)
{
    COPERNICUS_FATAL_IF(a + b + c > 1.0,
                        "R-MAT quadrant probabilities exceed 1");
    Index scale = 0;
    while ((Index(1) << scale) < n)
        ++scale;
    const Index side = Index(1) << scale;

    TripletMatrix matrix(n, n);
    std::unordered_set<std::uint64_t> seen;
    seen.reserve(edges * 2);
    // Cap attempts so adversarial parameters cannot loop forever.
    const std::size_t max_attempts = edges * 16 + 1024;
    std::size_t attempts = 0;
    while (seen.size() < edges && attempts < max_attempts) {
        ++attempts;
        Index r = 0, col = 0;
        for (Index bit = side >> 1; bit > 0; bit >>= 1) {
            const double roll = rng.uniform();
            if (roll < a) {
                // top-left: nothing set
            } else if (roll < a + b) {
                col |= bit;
            } else if (roll < a + b + c) {
                r |= bit;
            } else {
                r |= bit;
                col |= bit;
            }
        }
        if (r >= n || col >= n)
            continue;
        if (seen.insert(cellKey(r, col)).second)
            matrix.add(r, col, Value(1));
    }
    matrix.finalize();
    return matrix;
}

TripletMatrix
roadGrid(Index side, Rng &rng, double keep, double shortcutFraction)
{
    const Index n = side * side;
    TripletMatrix matrix(n, n);
    auto at = [side](Index x, Index y) { return y * side + x; };
    for (Index y = 0; y < side; ++y) {
        for (Index x = 0; x < side; ++x) {
            const Index i = at(x, y);
            if (x + 1 < side && rng.chance(keep)) {
                const Index j = at(x + 1, y);
                matrix.add(i, j, Value(1));
                matrix.add(j, i, Value(1));
            }
            if (y + 1 < side && rng.chance(keep)) {
                const Index j = at(x, y + 1);
                matrix.add(i, j, Value(1));
                matrix.add(j, i, Value(1));
            }
        }
    }
    const auto shortcuts = static_cast<std::size_t>(
        static_cast<double>(n) * shortcutFraction);
    for (std::size_t s = 0; s < shortcuts; ++s) {
        const Index i = static_cast<Index>(rng.below(n));
        const Index j = static_cast<Index>(rng.below(n));
        if (i != j) {
            matrix.add(i, j, Value(1));
            matrix.add(j, i, Value(1));
        }
    }
    matrix.finalize();
    return matrix;
}

TripletMatrix
circuitMatrix(Index n, Rng &rng, double bandKeep, double extraPerRow,
              Index railCount)
{
    TripletMatrix matrix(n, n);
    for (Index r = 0; r < n; ++r) {
        matrix.add(r, r, drawValue(rng));
        if (r + 1 < n && rng.chance(bandKeep)) {
            matrix.add(r, r + 1, drawValue(rng));
            matrix.add(r + 1, r, drawValue(rng));
        }
        // Local couplings: near-diagonal window models placement
        // locality of circuit netlists.
        const Index window = std::max<Index>(Index(64), n / 64);
        const double prob = extraPerRow / 2.0;
        for (int side = 0; side < 2; ++side) {
            double expect = prob;
            while (expect > 0 && rng.chance(std::min(1.0, expect))) {
                const Index offset =
                    static_cast<Index>(rng.below(window)) + 1;
                Index c;
                if (side == 0)
                    c = r >= offset ? r - offset : r + offset;
                else
                    c = r + offset < n ? r + offset : r - offset;
                if (c < n && c != r)
                    matrix.add(r, c, drawValue(rng));
                expect -= 1.0;
            }
        }
    }
    // Rail nodes (supply nets) couple to many rows.
    for (Index k = 0; k < railCount; ++k) {
        const Index rail = static_cast<Index>(rng.below(n));
        const Index fanout = n / 16;
        for (Index f = 0; f < fanout; ++f) {
            const Index r = static_cast<Index>(rng.below(n));
            matrix.add(r, rail, drawValue(rng));
        }
    }
    matrix.finalize();
    return matrix;
}

TripletMatrix
prunedLayer(Index rows, Index cols, double density, Rng &rng,
            bool blockStructured)
{
    TripletMatrix matrix(rows, cols);
    if (!blockStructured) {
        for (Index r = 0; r < rows; ++r)
            for (Index c = 0; c < cols; ++c)
                if (rng.chance(density))
                    matrix.add(r, c, drawValue(rng));
    } else {
        constexpr Index block = 4;
        for (Index br = 0; br < rows; br += block) {
            for (Index bc = 0; bc < cols; bc += block) {
                if (!rng.chance(density))
                    continue;
                for (Index r = br; r < std::min(rows, br + block); ++r)
                    for (Index c = bc; c < std::min(cols, bc + block);
                         ++c)
                        matrix.add(r, c, drawValue(rng));
            }
        }
    }
    matrix.finalize();
    return matrix;
}

TripletMatrix
embeddingAccess(Index batch, Index tableSize, Index lookups, Rng &rng)
{
    COPERNICUS_FATAL_IF(lookups > tableSize,
                        "embeddingAccess: more lookups than table entries");
    TripletMatrix matrix(batch, tableSize);
    for (Index row = 0; row < batch; ++row) {
        std::unordered_set<Index> hit;
        while (hit.size() < lookups) {
            const Index c = static_cast<Index>(rng.below(tableSize));
            if (hit.insert(c).second)
                matrix.add(row, c, Value(1));
        }
    }
    matrix.finalize();
    return matrix;
}

} // namespace copernicus
