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

TypedStream &
StreamDeclarer::begin(StreamClass cls, const char *name, Wire wire,
                      Bytes size)
{
    TypedStream &stream = payloads->emplace_back();
    stream.cls = cls;
    stream.name = name;
    stream.wire = wire;
    stream.bytes.reserve(size);
    return stream;
}

void
StreamDeclarer::finish(const TypedStream &stream, Bytes declared)
{
    if (stream.size() != declared)
        panic(std::string("stream '") + stream.name + "' declares " +
              std::to_string(declared) + " bytes but serializes " +
              std::to_string(stream.size()));
}

} // namespace copernicus
