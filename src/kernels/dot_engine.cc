#include "kernels/dot_engine.hh"

#include <vector>

#include "common/status.hh"

namespace copernicus {

Value
treeSum(std::span<const Value> terms)
{
    if (terms.empty())
        return Value(0);
    std::vector<Value> level(terms.begin(), terms.end());
    while (level.size() > 1) {
        std::vector<Value> next;
        next.reserve((level.size() + 1) / 2);
        for (std::size_t i = 0; i + 1 < level.size(); i += 2)
            next.push_back(level[i] + level[i + 1]);
        if (level.size() % 2 != 0)
            next.push_back(level.back());
        level = std::move(next);
    }
    return level.front();
}

Value
treeDot(std::span<const Value> a, std::span<const Value> b)
{
    COPERNICUS_FATAL_IF(a.size() != b.size(),
                        "treeDot operand length mismatch");
    std::vector<Value> products(a.size());
    for (std::size_t i = 0; i < a.size(); ++i)
        products[i] = a[i] * b[i];
    return treeSum(products);
}

} // namespace copernicus
