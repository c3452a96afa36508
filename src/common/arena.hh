/**
 * @file
 * Bump arena for the encode hot path.
 *
 * The sparse-native codecs (PR 5) spend a measurable share of their
 * per-tile budget in the allocator: scratch buffers (sort keys, block
 * scatter planes, touched sets) and stream staging are requested and
 * released once per tile, tens of thousands of times per sweep. The
 * arena replaces that churn with pointer bumps into thread-local
 * chunks that are *rewound*, never freed, between tiles.
 *
 * Contract (see DESIGN section 11):
 *
 *  - An Arena hands out raw, suitably-aligned storage via alloc<T>().
 *    Nothing is constructed or destroyed: only trivially-destructible
 *    types may live in an arena.
 *  - ArenaScope is the unit of reuse. Constructing one records the
 *    high-water mark; destruction rewinds to it, so everything
 *    allocated inside the scope is reclaimed at once. Scopes nest
 *    (LIFO), matching the codecs' call structure.
 *  - encodeArena() is the thread-local arena the codecs, tile
 *    construction (TileBuilder's sort, the TileStats pass) and the
 *    second-stage compressor share. It is confined to its thread:
 *    arena pointers must not escape the enclosing ArenaScope or cross
 *    threads. Each pool worker gets its own arena, so the parallel
 *    sweep paths need no locking.
 *  - Chunks grow geometrically and are retained across scopes, so a
 *    steady-state sweep performs zero allocator calls per tile.
 */

#ifndef COPERNICUS_COMMON_ARENA_HH
#define COPERNICUS_COMMON_ARENA_HH

#include <cstddef>
#include <cstdint>
#include <memory>
#include <type_traits>
#include <vector>

#include "common/status.hh"

namespace copernicus {

/** Chunked bump allocator; see file comment for the contract. */
class Arena
{
  public:
    /** @param firstChunkBytes Size of the first chunk (doubles after). */
    explicit Arena(std::size_t firstChunkBytes = 16 * 1024)
        : nextChunkBytes(firstChunkBytes == 0 ? 1 : firstChunkBytes)
    {}

    Arena(const Arena &) = delete;
    Arena &operator=(const Arena &) = delete;

    /**
     * @p count default-initialised (i.e. uninitialised for scalar
     * types) elements of T. T must be trivially destructible: the
     * arena never runs destructors.
     */
    template <typename T>
    T *
    alloc(std::size_t count)
    {
        static_assert(std::is_trivially_destructible_v<T>,
                      "Arena storage is rewound, never destroyed");
        return static_cast<T *>(allocate(count * sizeof(T), alignof(T)));
    }

    /** Raw storage, @p align must be a power of two. */
    void *
    allocate(std::size_t bytes, std::size_t align)
    {
        if (chunk < chunks.size()) {
            const std::uintptr_t base = reinterpret_cast<std::uintptr_t>(
                chunks[chunk].data.get());
            const std::size_t aligned =
                (offset + (align - 1)) & ~(align - 1);
            if (aligned + bytes <= chunks[chunk].size) {
                offset = aligned + bytes;
                return reinterpret_cast<void *>(base + aligned);
            }
        }
        return allocateSlow(bytes, align);
    }

    /** Bytes currently reserved across all chunks. */
    std::size_t
    reservedBytes() const
    {
        std::size_t total = 0;
        for (const Chunk &c : chunks)
            total += c.size;
        return total;
    }

  private:
    friend class ArenaScope;

    struct Chunk
    {
        std::unique_ptr<std::byte[]> data;
        std::size_t size = 0;
    };

    /** Rewind cursor: (chunk index, offset within it). */
    struct Mark
    {
        std::size_t chunk = 0;
        std::size_t offset = 0;
    };

    Mark
    mark() const
    {
        return {chunk, offset};
    }

    void
    rewind(Mark m)
    {
        chunk = m.chunk;
        offset = m.offset;
    }

    void *allocateSlow(std::size_t bytes, std::size_t align);

    std::vector<Chunk> chunks;
    std::size_t chunk = 0;  ///< chunk the cursor is in
    std::size_t offset = 0; ///< bump offset within that chunk
    std::size_t nextChunkBytes;
};

/**
 * RAII rewind point: everything allocated from @p arena inside this
 * scope's lifetime is reclaimed (chunks retained) on destruction.
 * Scopes must nest LIFO on their arena.
 */
class ArenaScope
{
  public:
    explicit ArenaScope(Arena &a) : arena(&a), saved(a.mark()) {}
    ~ArenaScope() { arena->rewind(saved); }

    ArenaScope(const ArenaScope &) = delete;
    ArenaScope &operator=(const ArenaScope &) = delete;

  private:
    Arena *arena;
    Arena::Mark saved;
};

/**
 * Fixed-capacity growable span over arena storage. A thin push_back
 * facade for scratch construction; never reallocates, so the caller
 * sizes the capacity from TileStats up front. Debug builds check the
 * capacity; release builds trust it (the encode hot path).
 */
template <typename T>
class ArenaVec
{
  public:
    ArenaVec() = default;

    ArenaVec(Arena &arena, std::size_t capacity)
        : buf(arena.alloc<T>(capacity)), cap(capacity)
    {}

    void
    push_back(T v)
    {
        COPERNICUS_DCHECK(count < cap, "ArenaVec capacity exceeded");
        buf[count++] = v;
    }

    T &operator[](std::size_t i) { return buf[i]; }
    const T &operator[](std::size_t i) const { return buf[i]; }

    T *data() { return buf; }
    const T *data() const { return buf; }
    T *begin() { return buf; }
    T *end() { return buf + count; }
    const T *begin() const { return buf; }
    const T *end() const { return buf + count; }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    void clear() { count = 0; }

  private:
    T *buf = nullptr;
    std::size_t cap = 0;
    std::size_t count = 0;
};

/**
 * The thread-local arena of the encode/compress hot path. Confined to
 * the calling thread; callers bracket per-tile work in an ArenaScope.
 */
Arena &encodeArena();

} // namespace copernicus

#endif // COPERNICUS_COMMON_ARENA_HH
