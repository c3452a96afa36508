#include "compress/lzf_block.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>

#include "compress/match_table.hh"

namespace copernicus {

namespace {

constexpr std::size_t minMatch = 3;
constexpr std::size_t maxMatch = 264; // 7 + 255 + 2
constexpr std::size_t maxOffset = 8192;
constexpr std::size_t maxLiteralRun = 32;

constexpr unsigned hashBits = 12;

std::uint32_t
read24(const std::uint8_t *p)
{
    return std::uint32_t(p[0]) | (std::uint32_t(p[1]) << 8) |
           (std::uint32_t(p[2]) << 16);
}

std::uint32_t
hash3(std::uint32_t sequence)
{
    return (sequence * 2654435761u) >> (32 - hashBits);
}

using Table = MatchTable<hashBits>;

/** Write @p len literals as runs of at most 32; returns the end. */
std::uint8_t *
flushLiterals(std::uint8_t *op, const std::uint8_t *literals,
              std::size_t len)
{
    while (len != 0) {
        const std::size_t run =
            len < maxLiteralRun ? len : maxLiteralRun;
        *op++ = std::uint8_t(run - 1);
        std::memcpy(op, literals, run);
        op += run;
        literals += run;
        len -= run;
    }
    return op;
}

/** Write one match at @p op; returns the byte past it. */
std::uint8_t *
emitMatch(std::uint8_t *op, std::size_t offset, std::size_t len)
{
    const std::size_t stored = len - 2;
    const std::size_t off = offset - 1;
    if (stored < 7) {
        *op++ = std::uint8_t((stored << 5) | (off >> 8));
    } else {
        *op++ = std::uint8_t((7u << 5) | (off >> 8));
        *op++ = std::uint8_t(stored - 7);
    }
    *op++ = std::uint8_t(off & 0xff);
    return op;
}

} // namespace

std::size_t
lzfCompress(std::span<const std::byte> src, std::vector<std::byte> &out)
{
    const std::size_t begin = out.size();
    const std::size_t n = src.size();
    if (n == 0)
        return 0;
    const auto *in = reinterpret_cast<const std::uint8_t *>(src.data());
    // The image never outgrows this. A run of l literals writes l
    // bytes and ceil(l / 32) <= (l - 1) / 32 + 1 control bytes; a match
    // of m bytes (3..264) writes 2 or 3, at least one fewer than m.
    // Matches separate the runs, so there is at most one run more than
    // there are matches: at most n + n / 32 + 1 bytes in all.
    out.resize(begin + n + n / maxLiteralRun + 4);
    std::uint8_t *const start =
        reinterpret_cast<std::uint8_t *>(out.data()) + begin;
    std::uint8_t *op = start;

    std::size_t anchor = 0;
    if (n >= minMatch) {
        thread_local Table table;
        table.startBlock(n);
        const std::size_t searchEnd = n - minMatch;
        std::size_t i = 0;
        while (i <= searchEnd) {
            const std::uint32_t seq = read24(in + i);
            const std::size_t match = table.exchange(hash3(seq), i);
            if (match == Table::none || i - match > maxOffset ||
                read24(in + match) != seq) {
                ++i;
                continue;
            }
            const std::size_t len =
                minMatch +
                matchLength(in + match + minMatch, in + i + minMatch,
                            std::min(maxMatch, n - i) - minMatch);
            op = flushLiterals(op, in + anchor, i - anchor);
            op = emitMatch(op, i - match, len);
            i += len;
            anchor = i;
        }
    }
    op = flushLiterals(op, in + anchor, n - anchor);
    const std::size_t written = std::size_t(op - start);
    out.resize(begin + written);
    return written;
}

bool
lzfDecompress(std::span<const std::byte> src, std::span<std::byte> dst)
{
    const auto *in = reinterpret_cast<const std::uint8_t *>(src.data());
    const auto *inEnd = in + src.size();
    auto *out = reinterpret_cast<std::uint8_t *>(dst.data());
    auto *const outBegin = out;
    auto *const outEnd = out + dst.size();

    while (in < inEnd) {
        const std::uint8_t ctrl = *in++;
        if (ctrl < 0x20) {
            const std::size_t run = std::size_t(ctrl) + 1;
            if (run > std::size_t(inEnd - in) ||
                run > std::size_t(outEnd - out))
                return false;
            std::memcpy(out, in, run);
            in += run;
            out += run;
            continue;
        }
        std::size_t len = ctrl >> 5;
        if (len == 7) {
            if (in >= inEnd)
                return false;
            len += *in++;
        }
        len += 2;
        if (in >= inEnd)
            return false;
        const std::size_t offset =
            ((std::size_t(ctrl) & 0x1f) << 8 | *in++) + 1;
        if (offset > std::size_t(out - outBegin) ||
            len > std::size_t(outEnd - out))
            return false;
        const std::uint8_t *from = out - offset;
        for (std::size_t k = 0; k < len; ++k)
            out[k] = from[k];
        out += len;
    }
    return out == outEnd;
}

} // namespace copernicus
