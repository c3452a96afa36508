#include "formats/typed_stream.hh"

#include <algorithm>
#include <string>

#include "common/status.hh"

namespace copernicus {

const char *
streamClassName(StreamClass cls)
{
    switch (cls) {
    case StreamClass::Value:
        return "value";
    case StreamClass::Index:
        return "index";
    case StreamClass::Offset:
        return "offset";
    }
    return "unknown";
}

void
WireBytes::add(Wire wire, Bytes bytes)
{
    if (wire >= maxWires)
        panic("wire " + std::to_string(wire) + " exceeds the " +
              std::to_string(maxWires) + "-wire read");
    sizes[wire] += bytes;
    count = std::max(count, std::size_t(wire) + 1);
}

Bytes
WireBytes::total() const
{
    Bytes sum = 0;
    for (Bytes bytes : wires())
        sum += bytes;
    return sum;
}

std::vector<std::byte> &
StreamDeclarer::imageScratch(Bytes size)
{
    thread_local std::vector<std::byte> scratch;
    scratch.clear();
    scratch.reserve(size);
    return scratch;
}

void
StreamDeclarer::checkImage(const char *name, Bytes declared,
                           const std::vector<std::byte> &image)
{
    if (image.size() != declared)
        panic(std::string("stream '") + name + "' declares " +
              std::to_string(declared) + " bytes but serializes " +
              std::to_string(image.size()));
}

} // namespace copernicus
