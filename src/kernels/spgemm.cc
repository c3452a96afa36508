#include "kernels/spgemm.hh"

#include "common/status.hh"

namespace copernicus {

TripletMatrix
spgemm(const CsrMatrix &a, const CsrMatrix &b)
{
    COPERNICUS_FATAL_IF(b.rows() != a.cols(),
                        "spgemm: inner dimensions must agree");
    TripletMatrix c(a.rows(), b.cols());

    // Gustavson: accumulate each output row in a sparse accumulator.
    std::vector<Value> accumulator(b.cols(), Value(0));
    std::vector<Index> touched;
    std::vector<bool> occupied(b.cols(), false);

    const auto &a_ptr = a.rowPtr();
    const auto &a_inds = a.colIndices();
    const auto &a_vals = a.values();
    const auto &b_ptr = b.rowPtr();
    const auto &b_inds = b.colIndices();
    const auto &b_vals = b.values();

    for (Index i = 0; i < a.rows(); ++i) {
        touched.clear();
        for (std::size_t ka = a_ptr[i]; ka < a_ptr[i + 1]; ++ka) {
            const Index k = a_inds[ka];
            const Value aik = a_vals[ka];
            for (std::size_t kb = b_ptr[k]; kb < b_ptr[k + 1]; ++kb) {
                const Index j = b_inds[kb];
                if (!occupied[j]) {
                    occupied[j] = true;
                    touched.push_back(j);
                }
                accumulator[j] += aik * b_vals[kb];
            }
        }
        for (Index j : touched) {
            if (accumulator[j] != Value(0))
                c.add(i, j, accumulator[j]);
            accumulator[j] = 0;
            occupied[j] = false;
        }
    }
    c.finalize();
    return c;
}

TripletMatrix
spgemm(const TripletMatrix &a, const TripletMatrix &b)
{
    return spgemm(CsrMatrix(a), CsrMatrix(b));
}

} // namespace copernicus
