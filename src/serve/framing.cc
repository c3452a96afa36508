#include "serve/framing.hh"

#include <algorithm>
#include <cstring>

#include "common/status.hh"

namespace copernicus {

namespace {

void
putU32le(char *out, std::uint32_t v)
{
    out[0] = static_cast<char>(v & 0xff);
    out[1] = static_cast<char>((v >> 8) & 0xff);
    out[2] = static_cast<char>((v >> 16) & 0xff);
    out[3] = static_cast<char>((v >> 24) & 0xff);
}

void
putU64le(char *out, std::uint64_t v)
{
    for (int i = 0; i < 8; ++i)
        out[i] = static_cast<char>((v >> (8 * i)) & 0xff);
}

std::uint32_t
getU32le(const char *in)
{
    const auto *b = reinterpret_cast<const unsigned char *>(in);
    return static_cast<std::uint32_t>(b[0]) |
           (static_cast<std::uint32_t>(b[1]) << 8) |
           (static_cast<std::uint32_t>(b[2]) << 16) |
           (static_cast<std::uint32_t>(b[3]) << 24);
}

std::uint64_t
getU64le(const char *in)
{
    const auto *b = reinterpret_cast<const unsigned char *>(in);
    std::uint64_t v = 0;
    for (int i = 0; i < 8; ++i)
        v |= static_cast<std::uint64_t>(b[i]) << (8 * i);
    return v;
}

} // namespace

void
appendFrame(std::string &out, FrameType type, std::uint64_t streamId,
            std::string_view payload)
{
    COPERNICUS_PANIC_IF(payload.size() > frameLengthHardCap,
                        "framing: payload exceeds the hard frame cap");
    char header[frameHeaderSize] = {};
    putU32le(header, static_cast<std::uint32_t>(payload.size()));
    header[4] = static_cast<char>(type);
    header[5] = 0; // flags
    header[6] = 0; // reserved
    header[7] = 0;
    putU64le(header + 8, streamId);
    out.append(header, frameHeaderSize);
    out.append(payload.data(), payload.size());
}

std::string
encodeFrame(FrameType type, std::uint64_t streamId,
            std::string_view payload)
{
    std::string out;
    out.reserve(frameHeaderSize + payload.size());
    appendFrame(out, type, streamId, payload);
    return out;
}

FrameDecoder::FrameDecoder(std::uint64_t maxFrameBytes)
    : maxFrame(maxFrameBytes)
{
}

void
FrameDecoder::feed(const char *data, std::size_t size)
{
    if (state == State::Broken)
        return;
    buffer.append(data, size);
}

bool
FrameDecoder::midFrame() const
{
    if (state == State::Payload || state == State::Discard)
        return true;
    return state == State::Header && bufferedBytes() > 0;
}

void
FrameDecoder::compact()
{
    // Drop consumed bytes once they dominate the buffer, so the
    // decoder's memory stays bounded by the feed chunk size instead of
    // growing with connection lifetime.
    if (consumed > 4096 && consumed * 2 >= buffer.size()) {
        buffer.erase(0, consumed);
        consumed = 0;
    }
}

DecodeResult
FrameDecoder::next(Frame &out)
{
    for (;;) {
        switch (state) {
          case State::Broken:
            return DecodeResult::Fatal;

          case State::Discard: {
            const std::size_t avail = bufferedBytes();
            const std::size_t take = static_cast<std::size_t>(
                std::min<std::uint64_t>(avail, discardRemaining));
            consumed += take;
            discardRemaining -= take;
            compact();
            if (discardRemaining > 0)
                return DecodeResult::NeedMore;
            state = State::Header;
            continue;
          }

          case State::Header: {
            if (bufferedBytes() < frameHeaderSize)
                return DecodeResult::NeedMore;
            const char *h = buffer.data() + consumed;
            length = getU32le(h);
            const auto rawType =
                static_cast<std::uint8_t>(h[4]);
            const auto flags = static_cast<std::uint8_t>(h[5]);
            const std::uint16_t reserved =
                static_cast<std::uint16_t>(
                    static_cast<std::uint8_t>(h[6]) |
                    (static_cast<std::uint8_t>(h[7]) << 8));
            streamId = getU64le(h + 8);
            consumed += frameHeaderSize;
            compact();

            if (rawType < 1 || rawType > 3) {
                state = State::Broken;
                fatalReason = "unknown frame type " +
                              std::to_string(rawType);
                return DecodeResult::Fatal;
            }
            type = static_cast<FrameType>(rawType);
            if (flags != 0 || reserved != 0) {
                state = State::Broken;
                fatalReason =
                    "non-zero flags/reserved bits in frame header";
                return DecodeResult::Fatal;
            }
            if (length > frameLengthHardCap) {
                state = State::Broken;
                fatalReason = "declared payload of " +
                              std::to_string(length) +
                              " bytes exceeds the hard cap";
                return DecodeResult::Fatal;
            }
            if (type == FrameType::Cancel && length != 0) {
                state = State::Broken;
                fatalReason = "cancel frame carries a payload";
                return DecodeResult::Fatal;
            }
            if (length > maxFrame) {
                // Report the header once, then stream the payload into
                // the void; the connection keeps its framing.
                state = State::Discard;
                discardRemaining = length;
                out.type = type;
                out.streamId = streamId;
                out.payload.clear();
                return DecodeResult::Oversized;
            }
            state = State::Payload;
            continue;
          }

          case State::Payload: {
            if (bufferedBytes() < length)
                return DecodeResult::NeedMore;
            out.type = type;
            out.streamId = streamId;
            out.payload.assign(buffer.data() + consumed,
                               static_cast<std::size_t>(length));
            consumed += static_cast<std::size_t>(length);
            compact();
            state = State::Header;
            return DecodeResult::GotFrame;
          }
        }
    }
}

} // namespace copernicus
