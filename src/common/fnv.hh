/**
 * @file
 * FNV-1a hashing shared by every content-addressed surface.
 *
 * The binary matrix container and the sweep journal (src/store) hash
 * packed triplet bytes with it, so a container's content hash and a
 * journal's matrix identity agree on what "the same triplets" means.
 * The serve result memo keys requests with it too. One definition, in
 * one header, keeps those fingerprints interchangeable.
 */

#ifndef COPERNICUS_COMMON_FNV_HH
#define COPERNICUS_COMMON_FNV_HH

#include <cstddef>
#include <cstdint>

namespace copernicus {

/** FNV-1a 64-bit offset basis. */
inline constexpr std::uint64_t fnvOffsetBasis = 0xcbf29ce484222325ULL;

/** FNV-1a 64-bit prime. */
inline constexpr std::uint64_t fnvPrime = 0x100000001b3ULL;

/**
 * Fold @p size raw bytes at @p data into @p hash (FNV-1a).
 *
 * Chain calls to hash a logical stream incrementally; start from
 * fnvOffsetBasis for a fresh fingerprint.
 */
inline std::uint64_t
fnv1a(const void *data, std::size_t size,
      std::uint64_t hash = fnvOffsetBasis)
{
    const auto *bytes = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        hash ^= bytes[i];
        hash *= fnvPrime;
    }
    return hash;
}

/** Fold one trivially-copyable value's bytes into @p hash. */
template <typename T>
inline std::uint64_t
fnv1aValue(const T &value, std::uint64_t hash = fnvOffsetBasis)
{
    return fnv1a(&value, sizeof(T), hash);
}

} // namespace copernicus

#endif // COPERNICUS_COMMON_FNV_HH
