#include "compress/lz4_block.hh"

#include <cstdint>
#include <cstring>

#include "compress/match_table.hh"

namespace copernicus {

namespace {

constexpr std::size_t minMatch = 4;
/** A match never starts within the last 12 bytes (LZ4 spec). */
constexpr std::size_t mfLimit = 12;
/** The last 5 bytes of a block are always literals (LZ4 spec). */
constexpr std::size_t lastLiterals = 5;
constexpr std::size_t maxOffset = 65535;

constexpr unsigned hashBits = 13;

std::uint32_t
read32(const std::uint8_t *p)
{
    std::uint32_t v;
    std::memcpy(&v, p, sizeof(v));
    return v;
}

std::uint32_t
hash4(std::uint32_t sequence)
{
    // Fibonacci hashing over the 4-byte window (Knuth multiplier).
    return (sequence * 2654435761u) >> (32 - hashBits);
}

void
writeLength(std::vector<std::byte> &out, std::size_t rest)
{
    // 15-nibble extension: 255-bytes until a closing byte < 255.
    while (rest >= 255) {
        out.push_back(std::byte{255});
        rest -= 255;
    }
    out.push_back(std::byte(rest));
}

void
emitSequence(std::vector<std::byte> &out, const std::uint8_t *literals,
             std::size_t literalLen, std::size_t offset,
             std::size_t matchLen)
{
    const std::size_t litNibble = literalLen < 15 ? literalLen : 15;
    std::size_t matchNibble = 0;
    if (matchLen != 0) {
        const std::size_t stored = matchLen - minMatch;
        matchNibble = stored < 15 ? stored : 15;
    }
    out.push_back(std::byte((litNibble << 4) | matchNibble));
    if (litNibble == 15)
        writeLength(out, literalLen - 15);
    const std::size_t at = out.size();
    out.resize(at + literalLen);
    if (literalLen != 0)
        std::memcpy(out.data() + at, literals, literalLen);
    if (matchLen == 0)
        return; // final literal-only token
    out.push_back(std::byte(offset & 0xff));
    out.push_back(std::byte(offset >> 8));
    if (matchNibble == 15)
        writeLength(out, matchLen - minMatch - 15);
}

using Table = MatchTable<hashBits>;

} // namespace

std::size_t
lz4Compress(std::span<const std::byte> src, std::vector<std::byte> &out)
{
    const std::size_t begin = out.size();
    const std::size_t n = src.size();
    if (n == 0)
        return 0;
    const auto *in = reinterpret_cast<const std::uint8_t *>(src.data());
    out.reserve(begin + n + n / 255 + 16);

    std::size_t anchor = 0;
    if (n > mfLimit) {
        thread_local Table table;
        table.startBlock(n);
        const std::size_t matchLimit = n - lastLiterals;
        const std::size_t searchEnd = n - mfLimit;
        std::size_t i = 0;
        while (i <= searchEnd) {
            const std::uint32_t seq = read32(in + i);
            std::size_t match = table.exchange(hash4(seq), i);
            if (match == Table::none || i - match > maxOffset ||
                read32(in + match) != seq) {
                ++i;
                continue;
            }
            // Extend forward to the literal tail, backward into the
            // pending literals.
            std::size_t len = minMatch;
            while (i + len < matchLimit && in[match + len] == in[i + len])
                ++len;
            while (i > anchor && match > 0 && in[i - 1] == in[match - 1]) {
                --i;
                --match;
                ++len;
            }
            emitSequence(out, in + anchor, i - anchor, i - match, len);
            i += len;
            anchor = i;
        }
    }
    emitSequence(out, in + anchor, n - anchor, 0, 0);
    return out.size() - begin;
}

bool
lz4Decompress(std::span<const std::byte> src, std::span<std::byte> dst)
{
    const auto *in = reinterpret_cast<const std::uint8_t *>(src.data());
    const auto *inEnd = in + src.size();
    auto *out = reinterpret_cast<std::uint8_t *>(dst.data());
    auto *const outBegin = out;
    auto *const outEnd = out + dst.size();

    while (in < inEnd) {
        const std::uint8_t token = *in++;

        std::size_t literalLen = token >> 4;
        if (literalLen == 15) {
            std::uint8_t b;
            do {
                if (in >= inEnd)
                    return false;
                b = *in++;
                literalLen += b;
            } while (b == 255);
        }
        if (literalLen > std::size_t(inEnd - in) ||
            literalLen > std::size_t(outEnd - out))
            return false;
        std::memcpy(out, in, literalLen);
        in += literalLen;
        out += literalLen;
        if (in == inEnd)
            break; // final token carries no match

        if (inEnd - in < 2)
            return false;
        const std::size_t offset = in[0] | (std::size_t(in[1]) << 8);
        in += 2;
        if (offset == 0 || offset > std::size_t(out - outBegin))
            return false;

        std::size_t matchLen = (token & 15) + minMatch;
        if ((token & 15) == 15) {
            std::uint8_t b;
            do {
                if (in >= inEnd)
                    return false;
                b = *in++;
                matchLen += b;
            } while (b == 255);
        }
        if (matchLen > std::size_t(outEnd - out))
            return false;
        // Byte-wise copy: overlapping matches (offset < length)
        // replicate the window, which is the point.
        const std::uint8_t *from = out - offset;
        for (std::size_t k = 0; k < matchLen; ++k)
            out[k] = from[k];
        out += matchLen;
    }
    return out == outEnd;
}

} // namespace copernicus
