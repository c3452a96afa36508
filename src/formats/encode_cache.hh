/**
 * @file
 * Compatibility names for the benchmark runner under perfbench/, which
 * still links them. There is no encode memo: encodeCached() encodes
 * through the registry's codec, clear() does nothing and stats() is
 * always zero. Nothing under src/ uses this header; it goes when the
 * runner stops naming it.
 */

#ifndef COPERNICUS_FORMATS_ENCODE_CACHE_HH
#define COPERNICUS_FORMATS_ENCODE_CACHE_HH

#include <cstdint>
#include <memory>

#include "formats/registry.hh"
#include "matrix/tile.hh"

namespace copernicus {

/** Stand-in for the removed encode memo: holds nothing. */
class EncodeCache
{
  public:
    /** Always zero: nothing is memoised. */
    struct Stats
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        std::uint64_t evictions = 0;
    };

    static EncodeCache &
    global()
    {
        static EncodeCache cache;
        return cache;
    }

    void clear() {}
    Stats stats() const { return {}; }
};

/** registry.codec(kind).encode(tile). */
inline std::shared_ptr<const EncodedTile>
encodeCached(const FormatRegistry &registry, FormatKind kind,
             const Tile &tile)
{
    return registry.codec(kind).encode(tile);
}

} // namespace copernicus

#endif // COPERNICUS_FORMATS_ENCODE_CACHE_HH
