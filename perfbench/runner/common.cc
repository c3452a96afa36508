#include "common.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <sstream>

#include <sched.h>
#include <sys/resource.h>

#include "trace/trace_writer.hh"

namespace perfbench {

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const double rank = q * static_cast<double>(values.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

namespace {

/** The cores this process may use, as it started. */
const std::vector<int> &
allowedCpus()
{
    static const std::vector<int> cpus = [] {
        std::vector<int> out;
        cpu_set_t set;
        CPU_ZERO(&set);
        if (sched_getaffinity(0, sizeof(set), &set) == 0)
            for (int cpu = 0; cpu < CPU_SETSIZE; ++cpu)
                if (CPU_ISSET(cpu, &set))
                    out.push_back(cpu);
        return out;
    }();
    return cpus;
}

} // namespace

unsigned
hostLanes()
{
    return static_cast<unsigned>(
        std::max<std::size_t>(1, allowedCpus().size()));
}

void
pinToLane(std::size_t k)
{
    const std::vector<int> &cpus = allowedCpus();
    if (cpus.empty())
        return;
    cpu_set_t set;
    CPU_ZERO(&set);
    CPU_SET(cpus[k % cpus.size()], &set);
    sched_setaffinity(0, sizeof(set), &set);
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::string
Digest::hex() const
{
    char buf[17];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

void
Report::checkPinned(const Options &opts, const Digest &digest)
{
    line("output digest: " + digest.hex() +
         (opts.expectDigest.empty() ? " (seed not pinned)"
                                    : " (pinned " + opts.expectDigest +
                                          ")"));
    if (!opts.expectDigest.empty())
        operation(digest.hex() == opts.expectDigest,
                  "output digest " + digest.hex() +
                      " differs from pinned " + opts.expectDigest);
}

std::int64_t
Ledger::ns(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(t - epoch)
        .count();
}

int
Ledger::open(const char *name)
{
    if (!on)
        return -1;
    const int parent = stack.empty() ? -1 : stack.back();
    const std::int64_t now = ns(Clock::now());
    spans.push_back({name, parent, now, now, 0, 1, 0, {}});
    const int id = static_cast<int>(spans.size() - 1);
    stack.push_back(id);
    return id;
}

void
Ledger::close(int id)
{
    if (id < 0)
        return;
    Span &span = spans[static_cast<std::size_t>(id)];
    span.endNs = ns(Clock::now());
    span.durNs = span.endNs - span.startNs;
    span.leaves.clear();
    span.leaves.shrink_to_fit();
    stack.pop_back();
    if (span.parent >= 0)
        spans[static_cast<std::size_t>(span.parent)].childNs += span.durNs;
}

void
Ledger::addLeaf(const char *name, Clock::time_point start,
                Clock::time_point end)
{
    const int parent = stack.empty() ? -1 : stack.back();
    const std::int64_t s = ns(start);
    const std::int64_t e = ns(end);
    int index = -1;
    if (parent >= 0) {
        for (const auto &[leafName, leafIndex] :
             spans[static_cast<std::size_t>(parent)].leaves) {
            if (leafName == name) {
                index = leafIndex;
                break;
            }
        }
    }
    if (index < 0) {
        spans.push_back({name, parent, s, s, 0, 0, 0, {}});
        index = static_cast<int>(spans.size() - 1);
        if (parent >= 0)
            spans[static_cast<std::size_t>(parent)].leaves.emplace_back(
                name, index);
    }
    Span &leafSpan = spans[static_cast<std::size_t>(index)];
    leafSpan.durNs += e - s;
    leafSpan.endNs = e;
    ++leafSpan.calls;
    if (parent >= 0)
        spans[static_cast<std::size_t>(parent)].childNs += e - s;
}

std::vector<Ledger::Layer>
Ledger::layers() const
{
    std::vector<Layer> out;
    std::map<std::string, std::size_t> slot;
    for (const Span &span : spans) {
        auto [it, fresh] = slot.emplace(span.name, out.size());
        if (fresh)
            out.push_back({span.name, 0, 0, 0});
        Layer &layer = out[it->second];
        layer.calls += span.calls;
        layer.totalS += static_cast<double>(span.durNs) * 1e-9;
        layer.selfS +=
            static_cast<double>(span.durNs - span.childNs) * 1e-9;
    }
    return out;
}

double
Ledger::attributedS(const std::string &root) const
{
    double sum = 0;
    for (const Layer &layer : layers())
        if (layer.name != root)
            sum += layer.selfS;
    return sum;
}

void
Ledger::writeTrace(const std::string &path,
                   const std::string &scopeName) const
{
    copernicus::TraceWriter writer;
    writer.beginScope(scopeName);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &span = spans[i];
        const std::string name = span.name;
        const std::string track = name.substr(0, name.find('.'));
        const auto startUs = static_cast<copernicus::Cycles>(
            span.startNs / 1000);
        const auto durUs =
            static_cast<copernicus::Cycles>(span.durNs / 1000);
        std::ostringstream args;
        args << "{\"span\": " << i << ", \"parent\": " << span.parent
             << ", \"calls\": " << span.calls << ", \"self_us\": "
             << (span.durNs - span.childNs) / 1000 << "}";
        writer.durationEventArgs(track, name, startUs, startUs + durUs,
                                 args.str());
    }
    writer.writeFile(path);
}

const std::vector<MetricSpec> &
perLayerMetrics()
{
    static const std::vector<MetricSpec> specs = {
        {"matrix.partition_s", "s"},
        {"matrix.partition_calls", "count"},
        {"matrix.tiles", "count"},
        {"matrix.mm_parse_s", "s"},
        {"store.cbm_write_s", "s"},
        {"store.cbm_open_s", "s"},
        {"store.stream_partition_s", "s"},
        {"store.source_scans", "count"},
        {"store.passes", "count"},
        {"store.peak_buffered_nnz", "count"},
        {"formats.encode_s", "s"},
        {"formats.encode_calls", "count"},
        {"formats.encode_cache.hits", "count"},
        {"formats.encode_cache.misses", "count"},
        {"formats.encode_cache.hit_ratio", "ratio"},
        {"formats.encode_cache.evictions", "count"},
        {"compress.tile_s", "s"},
        {"compress.streams", "count"},
        {"compress.stored_over_raw", "ratio"},
        {"hls.decompress_s", "s"},
        {"hls.decompress_calls", "count"},
        {"hls.cycle_model_s", "s"},
        {"hls.sim_cycles", "count"},
        {"fpga.model_s", "s"},
        {"pipeline.run_s", "s"},
        {"pipeline.self_s", "s"},
        {"core.study_run_s", "s"},
        {"core.plan_s", "s"},
        {"core.advise_s", "s"},
        {"serve.matrix_from_spec_s", "s"},
        {"common.pool.busy_s", "s"},
        {"common.pool.idle_frac", "ratio"},
        {"common.pool.tasks", "count"},
        {"serve.queue_wait_ms", "ms"},
        {"serve.handler_ms", "ms"},
        {"serve.wire_ms", "ms"},
        {"serve.advise_p50_ms", "ms"},
        {"serve.plan_formats_p50_ms", "ms"},
        {"serve.run_study_p50_ms", "ms"},
        {"serve.advise_repeat_p50_ms", "ms"},
        {"serve.advise_fresh_p50_ms", "ms"},
        {"serve.plan_formats_repeat_p50_ms", "ms"},
        {"serve.plan_formats_fresh_p50_ms", "ms"},
        {"serve.run_study_repeat_p50_ms", "ms"},
        {"serve.run_study_fresh_p50_ms", "ms"},
        {"serve.memo.hits", "count"},
        {"serve.memo.hit_ratio", "ratio"},
        {"serve.rejected", "count"},
        {"trace.overhead_frac", "ratio"},
        {"trace.layer_sum_over_wall", "ratio"},
    };
    return specs;
}

void
addLedgerLayers(LayerValues &values, const Ledger &ledger, double ops)
{
    for (const Ledger::Layer &layer : ledger.layers()) {
        values[layer.name + "_s"] = layer.totalS / ops;
        values[layer.name + "_calls"] =
            static_cast<double>(layer.calls) / ops;
        if (layer.name == "pipeline.run")
            values["pipeline.self_s"] = layer.selfS / ops;
    }
}

void
emitLayerMetrics(Report &report, const LayerValues &values)
{
    for (const MetricSpec &spec : perLayerMetrics()) {
        const auto it = values.find(spec.name);
        report.metric(spec.name, it == values.end() ? 0.0 : it->second,
                      spec.unit);
    }
}

void
printLayerTable(Report &report, const Ledger &ledger, double wallS)
{
    char buf[160];
    report.line("per-layer self time (traced wall " +
                std::to_string(wallS) + " s):");
    std::snprintf(buf, sizeof(buf), "  %-24s %12s %12s %12s %8s",
                  "layer", "calls", "total_s", "self_s", "self%");
    report.line(buf);
    for (const Ledger::Layer &layer : ledger.layers()) {
        std::snprintf(buf, sizeof(buf),
                      "  %-24s %12llu %12.4f %12.4f %7.2f%%",
                      layer.name.c_str(),
                      static_cast<unsigned long long>(layer.calls),
                      layer.totalS, layer.selfS,
                      wallS > 0 ? 100.0 * layer.selfS / wallS : 0.0);
        report.line(buf);
    }
}

} // namespace perfbench
