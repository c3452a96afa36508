/**
 * @file
 * Software-codec microbenchmarks (google-benchmark): encode, decode and
 * the in-place decode check (decodeInto plus TileBuilder::matches, what
 * the pipeline pays per tile) wall-clock cost per format on a 16x16
 * tile at two densities. SpMV on an encoding is this decode followed
 * by the dot engine, bit-identical for every format, so BM_Decode is
 * its format-dependent part. These time the *host-side*
 * implementation, complementing the modelled hardware cycles.
 */

#include <benchmark/benchmark.h>

#include "common/rng.hh"
#include "formats/registry.hh"

namespace copernicus {
namespace {

Tile
makeTile(Index p, double density)
{
    Rng rng(0xBEEF + static_cast<std::uint64_t>(density * 1000));
    TileBuilder t(p);
    for (Index r = 0; r < p; ++r)
        for (Index c = 0; c < p; ++c)
            if (rng.chance(density))
                t.set(r, c, static_cast<Value>(rng.range(0.5, 1.5)));
    return t.build();
}

FormatKind
kindAt(int index)
{
    return allFormats()[static_cast<std::size_t>(index)];
}

void
BM_Encode(benchmark::State &state)
{
    const FormatKind kind = kindAt(static_cast<int>(state.range(0)));
    const double density = state.range(1) / 100.0;
    const Tile tile = makeTile(16, density);
    const FormatCodec &codec = defaultCodec(kind);
    for (auto _ : state) {
        auto encoded = codec.encode(tile);
        benchmark::DoNotOptimize(encoded);
    }
    state.SetLabel(std::string(formatName(kind)) + " d=" +
                   std::to_string(density));
}

void
BM_Decode(benchmark::State &state)
{
    const FormatKind kind = kindAt(static_cast<int>(state.range(0)));
    const double density = state.range(1) / 100.0;
    const Tile tile = makeTile(16, density);
    const FormatCodec &codec = defaultCodec(kind);
    const auto encoded = codec.encode(tile);
    for (auto _ : state) {
        Tile decoded = codec.decode(*encoded);
        benchmark::DoNotOptimize(decoded);
    }
    state.SetLabel(std::string(formatName(kind)) + " d=" +
                   std::to_string(density));
}

void
BM_Verify(benchmark::State &state)
{
    const FormatKind kind = kindAt(static_cast<int>(state.range(0)));
    const double density = state.range(1) / 100.0;
    const Tile tile = makeTile(16, density);
    const FormatCodec &codec = defaultCodec(kind);
    const auto encoded = codec.encode(tile);
    for (auto _ : state) {
        TileBuilder decoded(16);
        codec.decodeInto(*encoded, decoded);
        const bool same = decoded.matches(tile);
        benchmark::DoNotOptimize(same);
    }
    state.SetLabel(std::string(formatName(kind)) + " d=" +
                   std::to_string(density));
}

void
formatArgs(benchmark::internal::Benchmark *bench)
{
    const int count = static_cast<int>(allFormats().size());
    for (int f = 0; f < count; ++f)
        for (int density : {5, 50})
            bench->Args({f, density});
}

BENCHMARK(BM_Encode)->Apply(formatArgs);
BENCHMARK(BM_Decode)->Apply(formatArgs);
BENCHMARK(BM_Verify)->Apply(formatArgs);

} // namespace
} // namespace copernicus

BENCHMARK_MAIN();
