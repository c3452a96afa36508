#include "common/arena.hh"

#include <algorithm>

namespace copernicus {

void *
Arena::allocateSlow(std::size_t bytes, std::size_t align)
{
    COPERNICUS_FATAL_IF((align & (align - 1)) != 0,
                        "Arena alignment must be a power of two");
    // Advance through retained chunks before minting a new one; a
    // rewound arena re-walks its chunk list in order, so steady state
    // allocates nothing.
    while (true) {
        if (chunk < chunks.size()) {
            const std::size_t aligned =
                (offset + (align - 1)) & ~(align - 1);
            if (aligned + bytes <= chunks[chunk].size) {
                offset = aligned + bytes;
                return chunks[chunk].data.get() + aligned;
            }
            ++chunk;
            offset = 0;
            continue;
        }
        // Chunks double so pathological tiles converge to one chunk;
        // oversize requests get a dedicated chunk of their own.
        const std::size_t want =
            std::max(nextChunkBytes, bytes + align);
        chunks.push_back({std::make_unique<std::byte[]>(want), want});
        nextChunkBytes = std::max(nextChunkBytes * 2, want);
    }
}

Arena &
encodeArena()
{
    thread_local Arena arena;
    return arena;
}

} // namespace copernicus
