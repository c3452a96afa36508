/**
 * @file
 * The single-probe match table the LZ block codecs share.
 *
 * Each thread keeps one table for all the blocks it compresses, so no
 * block pays to clear 16-32 KiB first. Positions are stored against a
 * running base that every block advances past its own length: an entry
 * left by an earlier block is at or below the current base and reads
 * as empty. A block's output therefore depends on its input alone, not
 * on what its thread compressed before. The table is zeroed only when
 * the base would overflow 32 bits.
 */

#ifndef COPERNICUS_COMPRESS_MATCH_TABLE_HH
#define COPERNICUS_COMPRESS_MATCH_TABLE_HH

#include <array>
#include <cstddef>
#include <cstdint>
#include <limits>

namespace copernicus {

template <unsigned HashBits>
class MatchTable
{
  public:
    /** What exchange() returns when this block has no earlier entry. */
    static constexpr std::size_t none = ~std::size_t(0);

    /** Start a block of @p n bytes; earlier blocks' entries vanish. */
    void
    startBlock(std::size_t n)
    {
        if (n > std::numeric_limits<std::uint32_t>::max() - top) {
            slots.fill(0);
            top = 0;
        }
        base = top;
        top += static_cast<std::uint32_t>(n);
    }

    /**
     * Record block position @p i under hash @p h and return the
     * position this block recorded there before, or none.
     */
    std::size_t
    exchange(std::uint32_t h, std::size_t i)
    {
        const std::uint32_t previous = slots[h];
        slots[h] = base + static_cast<std::uint32_t>(i) + 1;
        return previous > base ? previous - base - 1 : none;
    }

  private:
    std::array<std::uint32_t, std::size_t(1) << HashBits> slots{};
    std::uint32_t base = 0; ///< entries <= base belong to earlier blocks
    std::uint32_t top = 0;  ///< the base of the next block
};

} // namespace copernicus

#endif // COPERNICUS_COMPRESS_MATCH_TABLE_HH
