#include "core/study.hh"

#include <algorithm>
#include <atomic>
#include <fstream>
#include <mutex>

#include "analysis/table_writer.hh"
#include "common/status.hh"
#include "common/thread_pool.hh"
#include "common/trace_context.hh"
#include "compress/second_stage.hh"
#include "store/container.hh"
#include "store/sweep_journal.hh"
#include "trace/span.hh"

namespace copernicus {

void
StudyResult::writeCsv(std::ostream &out) const
{
    TableWriter table({"workload", "format", "p", "sigma",
                       "total_cycles", "seconds", "memory_cycles",
                       "compute_cycles", "balance_ratio",
                       "throughput_bps", "bw_util", "bytes",
                       "partitions", "bram18k", "ff_k", "lut_k",
                       "dyn_power_w", "static_power_w"});
    for (const auto &row : rows) {
        table.addRow({row.workload, std::string(formatName(row.format)),
                      std::to_string(row.partitionSize),
                      TableWriter::num(row.meanSigma, 8),
                      std::to_string(row.totalCycles),
                      TableWriter::num(row.seconds, 8),
                      std::to_string(row.memoryCycles),
                      std::to_string(row.computeCycles),
                      TableWriter::num(row.balanceRatio, 8),
                      TableWriter::num(row.throughput, 8),
                      TableWriter::num(row.bandwidthUtilization, 8),
                      std::to_string(row.totalBytes),
                      std::to_string(row.partitions),
                      TableWriter::num(row.resources.bram18k, 6),
                      TableWriter::num(row.resources.ffK, 6),
                      TableWriter::num(row.resources.lutK, 6),
                      TableWriter::num(row.power.dynamicW(), 6),
                      TableWriter::num(row.power.staticW, 6)});
    }
    table.writeCsv(out);
}

void
StudyResult::writeCsvFile(const std::string &path) const
{
    std::ofstream out(path);
    COPERNICUS_FATAL_IF(!out, "StudyResult: cannot open '" + path + "'");
    writeCsv(out);
}

std::vector<FormatMetrics>
StudyResult::aggregateByFormat() const
{
    std::vector<FormatMetrics> metrics;
    std::vector<std::size_t> counts;
    std::vector<Bytes> bytes;
    for (const auto &row : rows) {
        FormatMetrics *slot = nullptr;
        std::size_t i = 0;
        for (; i < metrics.size(); ++i) {
            if (metrics[i].format == row.format) {
                slot = &metrics[i];
                break;
            }
        }
        if (slot == nullptr) {
            metrics.push_back({});
            metrics.back().format = row.format;
            counts.push_back(0);
            bytes.push_back(0);
            slot = &metrics.back();
            i = metrics.size() - 1;
        }
        slot->meanSigma += row.meanSigma;
        slot->totalSeconds += row.seconds;
        slot->balanceRatio += row.balanceRatio;
        slot->bandwidthUtilization += row.bandwidthUtilization;
        slot->dynamicPowerW += row.power.dynamicW();
        bytes[i] += row.totalBytes;
        ++counts[i];
    }
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        const auto n = static_cast<double>(counts[i]);
        metrics[i].meanSigma /= n;
        metrics[i].balanceRatio /= n;
        metrics[i].bandwidthUtilization /= n;
        metrics[i].dynamicPowerW /= n;
        metrics[i].throughput =
            metrics[i].totalSeconds > 0
                ? static_cast<double>(bytes[i]) / metrics[i].totalSeconds
                : 0.0;
    }
    return metrics;
}

Study::Study(StudyConfig config)
    : cfg(std::move(config)), registry(cfg.formatParams)
{
    COPERNICUS_FATAL_IF(cfg.partitionSizes.empty(),
                        "Study needs at least one partition size");
    COPERNICUS_FATAL_IF(cfg.formats.empty(),
                        "Study needs at least one format");
}

void
Study::addWorkload(const std::string &name, TripletMatrix matrix)
{
    for (const auto &[existing, unused] : matrices)
        COPERNICUS_FATAL_IF(
            existing == name,
            "Study workload '" + name + "' already registered");
    COPERNICUS_PANIC_IF(!matrix.finalized(),
                        "Study workloads must be finalized matrices");
    matrices.emplace_back(name, std::move(matrix));
}

std::uint64_t
Study::workloadSetIdentity() const
{
    std::vector<std::pair<std::string, std::uint64_t>> hashes;
    hashes.reserve(matrices.size());
    for (const auto &[name, matrix] : matrices)
        hashes.emplace_back(name, contentHashOf(matrix));
    return workloadSetHash(hashes);
}

StudyRow
Study::makeRow(const std::string &workload, const Partitioning &parts,
               FormatKind kind, TraceSink *sink) const
{
    // One span per design point: at jobs > 1 the pool's context
    // propagation parents it under the span that issued the
    // parallelFor, so encodes attach to their request's study.run.
    const ScopedSpan span("study.encode", "study");
    const PipelineResult pipe = runPipeline(parts, kind, cfg.hls,
                                            registry, sink);
    StudyRow row;
    row.workload = workload;
    row.format = kind;
    row.partitionSize = parts.partitionSize;
    row.meanSigma = pipe.meanSigma;
    row.totalCycles = pipe.totalCycles;
    row.seconds = pipe.seconds;
    row.memoryCycles = pipe.totalMemoryCycles;
    row.computeCycles = pipe.totalComputeCycles;
    row.balanceRatio = pipe.balanceRatio;
    row.throughput = pipe.throughputBytesPerSec;
    row.bandwidthUtilization = pipe.bandwidthUtilization;
    row.totalBytes = pipe.totalBytes;
    row.partitions = pipe.partitions.size();
    row.resources =
        estimateResources(kind, parts.partitionSize, cfg.formatParams);
    row.power = estimatePower(kind, parts.partitionSize, cfg.formatParams);
    return row;
}

namespace {

/** One (workload, partition size) combination of a running sweep. */
struct Combination
{
    std::once_flag built;
    Partitioning parts;

    /** Design points still to price; the one that ends at 0 frees parts. */
    std::atomic<std::size_t> pending{0};
};

/**
 * Run's index space: every design point in row order, plus one build
 * per combination. The builds of the first @p window combinations come
 * first; the build of combination c + window follows the last design
 * point of combination c. Entries below combos * formats are design
 * points; entry combos * formats + c builds combination c.
 */
std::vector<std::size_t>
interleave(std::size_t combos, std::size_t formats, std::size_t window)
{
    const std::size_t points = combos * formats;
    std::vector<std::size_t> order;
    order.reserve(points + combos);
    for (std::size_t c = 0; c < std::min(window, combos); ++c)
        order.push_back(points + c);
    for (std::size_t c = 0; c < combos; ++c) {
        for (std::size_t f = 0; f < formats; ++f)
            order.push_back(c * formats + f);
        if (c + window < combos)
            order.push_back(points + c + window);
    }
    return order;
}

} // namespace

StudyResult
Study::run() const
{
    const ScopedSpan span("study.run", "study");
    const CompressTotals compressBefore = compressTotals();
    ThreadPool pool(cfg.jobs);

    // Design point i prices combination i / formats (a (workload,
    // partition size) pair, workload-major) in cfg.formats[i % formats]
    // and writes only row i, so completion order cannot change the
    // result. Rows the journal holds are restored up front; each
    // combination counts down the rows it has left to price.
    const std::size_t sizes = cfg.partitionSizes.size();
    const std::size_t formats = cfg.formats.size();
    const std::size_t combos = matrices.size() * sizes;
    const std::size_t points = combos * formats;
    StudyResult result;
    result.rows.resize(points);
    std::vector<char> restored(points, 0);
    std::vector<Combination> slots(combos);
    for (std::size_t i = 0; i < points; ++i) {
        const std::size_t c = i / formats;
        const StudyRow *done = nullptr;
        if (cfg.journal)
            done = cfg.journal->completed(matrices[c / sizes].first,
                                          cfg.formats[i % formats],
                                          cfg.partitionSizes[c % sizes]);
        if (done != nullptr) {
            result.rows[i] = *done;
            restored[i] = 1;
        } else {
            ++slots[c].pending;
        }
    }

    // A combination is partitioned at most once, by its build index or
    // by the first of its design points to get there (the others wait
    // in call_once), and freed by the lane that prices its last point,
    // so about two lane-counts of partitionings are alive at a time,
    // not the whole design space. A combination with nothing left to
    // price is never partitioned.
    const auto build = [&](std::size_t c) {
        Combination &combo = slots[c];
        std::call_once(combo.built, [&] {
            const ScopedSpan part_span("study.partition", "study");
            combo.parts = partition(matrices[c / sizes].second,
                                    cfg.partitionSizes[c % sizes]);
        });
    };

    // Per-partition traces are kept only when the points run one at a
    // time: interleaved timelines would be meaningless, and worker
    // lanes cover the parallel case. Cancellation is polled before
    // each design point starts, never before a build; the first
    // CancelledError stops the loop and discards every row.
    TraceSink *sink = pool.jobs() > 1 && points > 1 ? &noTraceSink()
                                                    : nullptr;
    const std::vector<std::size_t> order =
        interleave(combos, formats, pool.jobs());
    pool.parallelFor(order.size(), [&](std::size_t s) {
        const std::size_t i = order[s];
        if (i >= points) {
            if (slots[i - points].pending.load() > 0)
                build(i - points);
            return;
        }
        if (cfg.cancelCheck && cfg.cancelCheck())
            throw CancelledError(
                "Study::run cancelled between design points");
        if (restored[i])
            return;
        const std::size_t c = i / formats;
        build(c);
        Combination &combo = slots[c];
        result.rows[i] = makeRow(matrices[c / sizes].first, combo.parts,
                                 cfg.formats[i % formats], sink);
        if (cfg.journal)
            cfg.journal->record(result.rows[i]);
        if (combo.pending.fetch_sub(1) == 1)
            combo.parts = Partitioning();
    });

    if (cfg.hls.secondStageCompression &&
        SpanCollector::global().enabled()) {
        // Per-tile compress timings are far too fine-grained for the
        // span ring; report one synthetic span whose duration is the
        // summed second-stage time across every design point, parented
        // under study.run so traces show where the compression cost
        // sits.
        const std::uint64_t nanos =
            compressTotals().nanos - compressBefore.nanos;
        const TraceContext ctx = currentTraceContext();
        SpanRecord rec;
        rec.traceId = ctx.valid() ? ctx.traceId : newTraceId();
        rec.spanId = newSpanId();
        rec.parentSpanId = ctx.valid() ? ctx.spanId : 0;
        rec.name = "study.compress";
        rec.track = "study";
        rec.endUs = observeNowUs();
        const std::uint64_t micros = nanos / 1000;
        rec.startUs = rec.endUs > micros ? rec.endUs - micros : 0;
        SpanCollector::global().record(std::move(rec));
    }
    return result;
}

} // namespace copernicus
