#include "analysis/capacity_pass.hh"

#include <algorithm>
#include <utility>

#include "fpga/buffer_model.hh"

namespace copernicus {

namespace {

/** Device BRAM capacity in bits. */
Bytes
deviceBramBits(const DeviceCapacity &device)
{
    return static_cast<Bytes>(device.bram18k * bram18kBits);
}

} // namespace

void
checkPortPressure(const ScheduleSpec &spec, const HlsConfig &config,
                  LintReport &report)
{
    const std::string name(formatName(spec.format));
    const auto &segments = spec.segments;
    std::size_t i = 0;
    while (i < segments.size()) {
        if (segments[i].kind != SegmentKind::Pipelined) {
            ++i;
            continue;
        }
        // One maximal run of consecutive Pipelined segments: they
        // overlap in steady state, so their port demands add up.
        std::size_t end = i + 1;
        while (end < segments.size() &&
               segments[end].kind == SegmentKind::Pipelined)
            ++end;
        if (end - i >= 2) {
            Index pressure = 0;
            std::string chain;
            for (std::size_t s = i; s < end; ++s) {
                pressure += segments[s].bankAccessesPerII;
                if (!chain.empty())
                    chain += " -> ";
                chain += segments[s].name;
            }
            if (pressure > config.bramPorts) {
                LintDiagnostic d;
                d.id = "COP070";
                d.pass = "capacity";
                d.format = name;
                d.segment = chain;
                d.message =
                    "pipelined chain over-subscribes one bank: '" +
                    chain + "' needs " + std::to_string(pressure) +
                    " accesses per II concurrently, but banks expose " +
                    std::to_string(config.bramPorts) + " ports";
                d.fixHint = "split the chain's arrays across banks or "
                            "serialize the segments";
                report.add(std::move(d));
            }
        }
        i = end;
    }
}

void
checkBufferCapacity(FormatKind kind, Index p,
                    const FormatParams &params,
                    const DeviceCapacity &device, LintReport &report)
{
    const std::string name(formatName(kind));
    const std::vector<BufferRequirement> buffers =
        bufferRequirements(kind, p, params);
    Bytes bits = 0;
    const BufferRequirement *largest = nullptr;
    for (const BufferRequirement &buffer : buffers) {
        bits += buffer.bits();
        if (largest == nullptr || buffer.bits() > largest->bits())
            largest = &buffer;
    }
    // Tile k decodes while tile k+1 loads: the streaming pipeline
    // keeps two worst-case working sets resident.
    const Bytes doubleBuffered = 2 * bits;
    const Bytes capacity = deviceBramBits(device);
    if (capacity == 0)
        return;
    if (doubleBuffered > capacity) {
        LintDiagnostic d;
        d.id = "COP071";
        d.pass = "capacity";
        d.format = name;
        d.segment = largest != nullptr ? largest->array : "";
        d.message =
            "double-buffered working set exceeds device BRAM at p=" +
            std::to_string(p) + ": needs " +
            std::to_string(doubleBuffered) + " bits of " +
            std::to_string(capacity) +
            (largest != nullptr
                 ? " (largest buffer: '" + largest->array + "', " +
                       std::to_string(largest->bits()) + " bits)"
                 : "");
        d.fixHint = "shrink the partition size or drop the format "
                    "from the sweep at this p";
        report.add(std::move(d));
    } else if (doubleBuffered * 10 > capacity * 8) {
        LintDiagnostic d;
        d.severity = LintSeverity::Warning;
        d.id = "COP072";
        d.pass = "capacity";
        d.format = name;
        d.segment = largest != nullptr ? largest->array : "";
        d.message =
            "double-buffered working set above 80% of device BRAM "
            "at p=" +
            std::to_string(p) + ": " + std::to_string(doubleBuffered) +
            " of " + std::to_string(capacity) + " bits";
        report.add(std::move(d));
    }
}

void
runCapacityPass(const LintOptions &options, LintReport &report)
{
    const DeviceCapacity device;
    for (FormatKind kind : admittedFormats(options.params)) {
        checkPortPressure(scheduleSpec(kind), options.hls, report);
        for (Index p : options.partitionSizes) {
            if (p == 0)
                continue;
            checkBufferCapacity(kind, p, options.params, device,
                                report);
        }
    }
}

} // namespace copernicus
