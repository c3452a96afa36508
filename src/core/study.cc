#include "core/study.hh"

#include <atomic>
#include <fstream>
#include <optional>

#include "analysis/table_writer.hh"
#include "common/status.hh"
#include "common/thread_pool.hh"
#include "common/trace_context.hh"
#include "compress/second_stage.hh"
#include "store/container.hh"
#include "store/sweep_journal.hh"
#include "trace/profile.hh"
#include "trace/span.hh"

namespace copernicus {

std::vector<StudyRow>
StudyResult::atPartition(Index p) const
{
    std::vector<StudyRow> selected;
    for (const auto &row : rows)
        if (row.partitionSize == p)
            selected.push_back(row);
    return selected;
}

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
    const ScopedTimer timer("study.run.pipeline");
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
    row.resources = estimateResources(kind, parts.partitionSize);
    row.power = estimatePower(kind, parts.partitionSize);
    return row;
}

const Partitioning &
Study::partitionsFor(std::size_t w, Index p) const
{
    PartitionSlot *slot;
    {
        const MutexLock lock(*cacheMutex);
        slot = &cache[std::make_pair(w, p)];
    }
    // The slot is built outside the map lock so distinct keys
    // partition concurrently (run() fans the combinations out on the
    // pool); call_once serialises only same-key racers. std::map
    // nodes are stable and entries are never erased, so the reference
    // outlives both locks.
    std::call_once(slot->once, [&] {
        const ScopedTimer part_timer("study.run.partition");
        const ScopedSpan part_span("study.partition", "study");
        slot->parts = partition(matrices[w].second, p);
    });
    return slot->parts;
}

StudyResult
Study::run() const
{
    const ScopedTimer timer("study.run");
    const ScopedSpan span("study.run", "study");
    const CompressTotals compressBefore = compressTotals();

    const unsigned jobs = effectiveJobs(cfg.jobs);
    std::optional<ThreadPool> pool;
    if (jobs > 1)
        pool.emplace(jobs);

    // Build every (workload, partition size) combination first. At
    // jobs > 1 the combinations fan out on the pool — partitionsFor()
    // constructs per slot, so distinct keys partition concurrently —
    // and the design-point enumeration below then only reads cached
    // references.
    std::vector<std::pair<std::size_t, Index>> combos;
    combos.reserve(matrices.size() * cfg.partitionSizes.size());
    for (std::size_t w = 0; w < matrices.size(); ++w)
        for (Index p : cfg.partitionSizes)
            combos.emplace_back(w, p);
    if (pool && combos.size() > 1) {
        pool->parallelFor(combos.size(), [&](std::size_t i) {
            partitionsFor(combos[i].first, combos[i].second);
        });
    }

    struct Point
    {
        std::size_t w;
        const Partitioning *parts;
        FormatKind kind;
    };
    std::vector<Point> points;
    points.reserve(combos.size() * cfg.formats.size());
    for (const auto &[w, p] : combos) {
        const Partitioning &parts = partitionsFor(w, p);
        for (FormatKind kind : cfg.formats)
            points.push_back({w, &parts, kind});
    }

    StudyResult result;
    result.rows.resize(points.size());
    if (pool && points.size() > 1) {
        // Each design point is pure and writes only its own row, so
        // completion order cannot change the result; tracing is forced
        // off because interleaved per-partition timelines would be
        // meaningless (worker lanes cover the parallel case).
        // Cancellation is polled at the same boundary as the serial
        // path: a worker about to start a design point sees the flag
        // and skips, and the caller rethrows once the loop drains.
        std::atomic<bool> cancelled{false};
        pool->parallelFor(points.size(), [&](std::size_t i) {
            if (cancelled.load(std::memory_order_relaxed))
                return;
            if (cfg.cancelCheck && cfg.cancelCheck()) {
                cancelled.store(true, std::memory_order_relaxed);
                return;
            }
            const Point &pt = points[i];
            const std::string &workload = matrices[pt.w].first;
            if (cfg.journal) {
                const StudyRow *done = cfg.journal->completed(
                    workload, pt.kind, pt.parts->partitionSize);
                if (done != nullptr) {
                    result.rows[i] = *done;
                    return;
                }
            }
            result.rows[i] = makeRow(workload, *pt.parts, pt.kind,
                                     &noTraceSink());
            if (cfg.journal)
                cfg.journal->record(result.rows[i]);
        });
        if (cancelled.load(std::memory_order_relaxed))
            throw CancelledError("Study::run cancelled between design "
                                 "points");
    } else {
        for (std::size_t i = 0; i < points.size(); ++i) {
            if (cfg.cancelCheck && cfg.cancelCheck()) {
                throw CancelledError(
                    "Study::run cancelled between design points");
            }
            const Point &pt = points[i];
            const std::string &workload = matrices[pt.w].first;
            if (cfg.journal) {
                const StudyRow *done = cfg.journal->completed(
                    workload, pt.kind, pt.parts->partitionSize);
                if (done != nullptr) {
                    result.rows[i] = *done;
                    continue;
                }
            }
            result.rows[i] = makeRow(workload, *pt.parts, pt.kind,
                                     nullptr);
            if (cfg.journal)
                cfg.journal->record(result.rows[i]);
        }
    }

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

StudyRow
Study::evaluate(const std::string &workload, FormatKind kind,
                Index partitionSize) const
{
    for (std::size_t w = 0; w < matrices.size(); ++w) {
        if (matrices[w].first != workload)
            continue;
        return makeRow(workload, partitionsFor(w, partitionSize), kind,
                       nullptr);
    }
    fatal("Study: unknown workload '" + workload + "'");
}

} // namespace copernicus
