/**
 * @file
 * The two sweep workloads: Study::run over the Table-1 surrogate
 * catalog (second-stage compression off) and over the synthetic
 * density/band sweep (second-stage compression on).
 *
 * Untraced runs time whole cold sweeps (the inputs are generated anew
 * and the encode cache is cleared before each) at jobs = lanes. Traced
 * runs do three things with one generated input set: a parallel
 * Study::run with thread-pool lane
 * recording (pool efficiency, reference rows), a serial untraced
 * Study::run (the overhead baseline), and a serial replay of the same
 * sweep through the layers' public entry points, in the order
 * runPipeline calls them, with a span around each call. The replay's
 * rows must equal Study::run's rows bit for bit, so the ledger is known
 * to describe the same work.
 */

#include <algorithm>
#include <cstdio>
#include <string>
#include <utility>
#include <vector>

#include "common.hh"

#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "compress/second_stage.hh"
#include "core/study.hh"
#include "formats/encode_cache.hh"
#include "formats/validate.hh"
#include "hls/axi.hh"
#include "hls/decompressor.hh"
#include "workloads/generators.hh"
#include "workloads/suite_catalog.hh"

using namespace copernicus;

namespace perfbench {

namespace {

using WorkloadSet = std::vector<std::pair<std::string, TripletMatrix>>;

/** Per-matrix generator seed derived from the run seed. */
std::uint64_t
derivedSeed(std::uint64_t seed, std::uint64_t index)
{
    std::uint64_t state = seed * 0x9e3779b97f4a7c15ULL + index;
    return splitMix64(state);
}

/** The 20 Table-1 surrogates at bench scale (half dimension). */
WorkloadSet
catalogWorkloads(std::uint64_t seed, unsigned lanes)
{
    const auto &catalog = suiteCatalog();
    WorkloadSet set;
    for (const auto &info : catalog)
        set.emplace_back(info.id, TripletMatrix(1, 1));
    ThreadPool pool(lanes);
    pool.parallelFor(set.size(), [&](std::size_t i) {
        SuiteMatrixInfo scaled = catalog[i];
        scaled.surrogateDim =
            std::max<Index>(512, catalog[i].surrogateDim / 2);
        set[i].second = scaled.generate(derivedSeed(seed, i));
    });
    return set;
}

/**
 * The paper's random density sweep and band widths, at n = 512 (half
 * the benches' reduced scale) so a run holds enough sweeps for a steady
 * median.
 */
WorkloadSet
synthWorkloads(std::uint64_t seed, unsigned lanes)
{
    const std::vector<double> densities = {0.0001, 0.001, 0.01,
                                           0.1,    0.2,   0.5};
    const std::vector<Index> widths = {1, 2, 4, 8, 16, 32, 64};
    const Index n = 512;
    WorkloadSet set;
    for (double d : densities)
        set.emplace_back("d=" + std::to_string(d), TripletMatrix(1, 1));
    for (Index w : widths)
        set.emplace_back("w=" + std::to_string(w), TripletMatrix(1, 1));
    ThreadPool pool(lanes);
    pool.parallelFor(set.size(), [&](std::size_t i) {
        Rng rng(derivedSeed(seed, i));
        set[i].second =
            i < densities.size()
                ? randomMatrix(n, densities[i], rng)
                : bandMatrix(n, widths[i - densities.size()], rng);
    });
    return set;
}

/**
 * Digest of the rows, in row order. With @p storedBytes false the
 * digest leaves out the stored byte count and everything derived from
 * it (memory and total cycles, seconds, balance, throughput, bandwidth
 * utilization). Second-stage compression needs that: its match tables
 * are per thread and keep entries from earlier blocks
 * (compress/lz4_block.cc, compress/lzf_block.cc), so the compressed
 * sizes of one tile vary with what the thread compressed before.
 */
Digest
rowsDigest(const std::vector<StudyRow> &rows, bool storedBytes)
{
    Digest d;
    for (const StudyRow &r : rows) {
        d.text(r.workload);
        d.value(static_cast<int>(r.format));
        d.value(r.partitionSize);
        d.value(r.meanSigma);
        d.value(r.computeCycles);
        d.value(r.partitions);
        if (storedBytes) {
            d.value(r.totalCycles);
            d.value(r.seconds);
            d.value(r.memoryCycles);
            d.value(r.balanceRatio);
            d.value(r.throughput);
            d.value(r.bandwidthUtilization);
            d.value(r.totalBytes);
        }
        d.value(r.resources.bram18k);
        d.value(r.resources.ffK);
        d.value(r.resources.lutK);
        d.value(r.resources.calibrated);
        d.value(r.power.logicW);
        d.value(r.power.bramW);
        d.value(r.power.signalsW);
        d.value(r.power.staticW);
    }
    return d;
}

/** Tile x format evaluations a sweep performed. */
double
tileEvals(const std::vector<StudyRow> &rows)
{
    double evals = 0;
    for (const StudyRow &r : rows)
        evals += static_cast<double>(r.partitions);
    return evals;
}

StudyResult
runStudy(const WorkloadSet &set, StudyConfig cfg, unsigned jobs)
{
    cfg.jobs = jobs;
    Study study(cfg);
    for (const auto &[name, matrix] : set)
        study.addWorkload(name, matrix);
    return study.run();
}

/**
 * One design point through the layers, exactly as runPipeline and
 * Study::makeRow compute it.
 */
StudyRow
replayRow(const std::string &workload, const Partitioning &parts,
          FormatKind kind, const StudyConfig &cfg,
          const FormatRegistry &registry, Ledger &ledger)
{
    const Ledger::Scope span(ledger, "pipeline.run");
    const HlsConfig &config = cfg.hls;
    const Index p = parts.partitionSize;
    const Bytes outBytes = Bytes(p) * valueBytes;

    StudyRow row;
    row.workload = workload;
    row.format = kind;
    row.partitionSize = p;

    double balanceSum = 0;
    double sigmaSum = 0;
    Cycles fillFirst = 0;
    Cycles drainLast = 0;
    Bytes usefulTotal = 0;
    std::size_t count = 0;
    for (const Tile &tile : parts.tiles) {
        const auto encoded = ledger.leaf("formats.encode", [&] {
            return encodeCached(registry, kind, tile);
        });
        if (grammarValidationEnabled()) {
            const bool valid = ledger.leaf("formats.validate", [&] {
                return validateEncodedTile(*encoded).ok();
            });
            if (!valid)
                throw std::runtime_error("replay: grammar violation");
        }
        const DecompressResult decomp =
            ledger.leaf("hls.decompress", [&] {
                return simulateDecompression(*encoded, config);
            });
        if (!(decomp.decoded == tile))
            throw std::runtime_error("replay: decoded tile differs");

        std::vector<Bytes> streams = encoded->streams();
        Bytes tileBytes = encoded->totalBytes();
        if (config.secondStageCompression) {
            const TileCompression comp = ledger.leaf(
                "compress.tile", [&] { return compressTile(*encoded); });
            streams = comp.storedStreamBytes();
            tileBytes = comp.storedBytes();
        }
        if (config.streamVectorOperand)
            streams.push_back(Bytes(p) * valueBytes);

        Cycles memory = 0;
        Cycles compute = 0;
        Cycles write = 0;
        double sigma = 0;
        ledger.leaf("hls.cycle_model", [&] {
            memory = transferCycles(streams, config);
            compute = computeCycles(decomp, config);
            write = writebackCycles(outBytes, config);
            sigma = sigmaOverhead(decomp, p, config);
        });

        row.memoryCycles += memory;
        row.computeCycles += compute;
        row.totalBytes += tileBytes;
        usefulTotal += encoded->usefulBytes();
        row.totalCycles += std::max(memory, std::max(compute, write));
        balanceSum += compute == 0 ? 0.0
                                   : static_cast<double>(memory) /
                                         static_cast<double>(compute);
        sigmaSum += sigma;
        if (count == 0)
            fillFirst = memory;
        drainLast = write;
        ++count;
    }
    if (count > 0) {
        row.totalCycles += fillFirst + drainLast;
        row.balanceRatio = balanceSum / static_cast<double>(count);
        row.meanSigma = sigmaSum / static_cast<double>(count);
    }
    row.partitions = count;
    row.seconds =
        static_cast<double>(row.totalCycles) * config.secondsPerCycle();
    row.throughput = row.seconds == 0.0
                         ? 0.0
                         : static_cast<double>(row.totalBytes) /
                               row.seconds;
    row.bandwidthUtilization =
        row.totalBytes == 0 ? 0.0
                            : static_cast<double>(usefulTotal) /
                                  static_cast<double>(row.totalBytes);
    ledger.leaf("fpga.model", [&] {
        row.resources = estimateResources(kind, p);
        row.power = estimatePower(kind, p);
    });
    return row;
}

/** Serial replay of Study::run over @p set, one span per layer call. */
std::vector<StudyRow>
replaySweep(const WorkloadSet &set, const StudyConfig &cfg,
            Ledger &ledger)
{
    const Ledger::Scope root(ledger, "core.study_run");
    const FormatRegistry registry(cfg.formatParams);
    std::vector<StudyRow> rows;
    for (const auto &[name, matrix] : set) {
        for (Index p : cfg.partitionSizes) {
            Partitioning parts;
            {
                const Ledger::Scope span(ledger, "matrix.partition");
                parts = partition(matrix, p);
            }
            for (FormatKind kind : cfg.formats)
                rows.push_back(
                    replayRow(name, parts, kind, cfg, registry, ledger));
        }
    }
    return rows;
}

struct SweepKind
{
    const char *name;
    bool compress;
    WorkloadSet (*generate)(std::uint64_t, unsigned);
};

void
runUntraced(const SweepKind &kind, const Options &opts, Report &report)
{
    const unsigned lanes = hostLanes();
    StudyConfig cfg;
    cfg.hls.secondStageCompression = kind.compress;
    EncodeCache &cache = EncodeCache::global();

    std::vector<double> walls;
    std::vector<double> rates;
    Digest first;
    const Clock::time_point bodyStart = Clock::now();
    std::vector<double> setupTimes;
    WorkloadSet set;
    while (walls.size() < 3 || secondsSince(bodyStart) < opts.seconds) {
        // Set-up (input generation) before every sweep, so its median
        // samples the whole run rather than one moment of it.
        Clock::time_point start = Clock::now();
        set = kind.generate(opts.seed, lanes);
        setupTimes.push_back(secondsSince(start));
        cache.clear();
        start = Clock::now();
        bool ok = true;
        std::string what;
        try {
            const StudyResult result = runStudy(set, cfg, lanes);
            const double wall = secondsSince(start);
            const Digest digest = rowsDigest(result.rows, !kind.compress);
            if (walls.empty())
                first = digest;
            ok = digest.get() == first.get();
            what = "sweep rows differ from the first sweep";
            walls.push_back(wall);
            rates.push_back(tileEvals(result.rows) / wall);
        } catch (const std::exception &e) {
            ok = false;
            what = e.what();
        }
        report.operation(ok, what);
        if (!ok && walls.empty())
            break;
    }
    report.checkPinned(opts, first);

    std::vector<double> wallsMs;
    for (double w : walls)
        wallsMs.push_back(w * 1000);
    report.metric("setup_s", median(setupTimes), "s");
    report.metric("ops_per_s", median(rates), "1/s");
    report.metric("latency_p50_ms", median(wallsMs), "ms");
    report.metric("latency_p90_ms", quantile(wallsMs, 0.9), "ms");
    report.metric("peak_rss_mb", peakRssMb(), "MiB");
    report.line("workload inputs: " + std::to_string(set.size()) +
                " matrices x 8 formats x p in {8,16,32}, jobs=" +
                std::to_string(lanes) + ", second-stage " +
                (kind.compress ? "on" : "off"));
    report.line("ops_per_s = tile_evals_per_s (tile x format evaluations "
                "per second); latency = one cold sweep; samples: " +
                std::to_string(walls.size()) + " sweeps");
}

void
runTraced(const SweepKind &kind, const Options &opts, Report &report)
{
    const unsigned lanes = hostLanes();
    const WorkloadSet set = kind.generate(opts.seed, lanes);
    StudyConfig cfg;
    cfg.hls.secondStageCompression = kind.compress;
    EncodeCache &cache = EncodeCache::global();
    LayerValues values;

    // 1. The real sweep at jobs = lanes, with lane recording: pool
    //    efficiency and the reference rows.
    cache.clear();
    ThreadPool::drainLaneSpans();
    ThreadPool::setLaneRecording(true);
    Clock::time_point start = Clock::now();
    const StudyResult parallel = runStudy(set, cfg, lanes);
    const double parallelWall = secondsSince(start);
    ThreadPool::setLaneRecording(false);
    const auto laneSpans = ThreadPool::drainLaneSpans();
    double busyS = 0;
    for (const auto &span : laneSpans)
        busyS += static_cast<double>(span.endUs - span.startUs) * 1e-6;
    values["common.pool.busy_s"] = busyS;
    values["common.pool.tasks"] = static_cast<double>(laneSpans.size());
    values["common.pool.idle_frac"] =
        1.0 - busyS / (parallelWall * static_cast<double>(lanes));
    const auto digestOf = [&](const std::vector<StudyRow> &rows) {
        return rowsDigest(rows, !kind.compress).get();
    };
    const Digest reference = rowsDigest(parallel.rows, !kind.compress);
    report.operation(true);
    report.checkPinned(opts, reference);

    // 2. Serial untraced Study::run: the baseline the traced replay's
    //    wall is compared against.
    cache.clear();
    start = Clock::now();
    const StudyResult serial = runStudy(set, cfg, 1);
    const double serialWall = secondsSince(start);
    report.operation(digestOf(serial.rows) == reference.get(),
                     "serial rows differ from parallel rows");

    // 3. The traced serial replay.
    cache.clear();
    const EncodeCache::Stats cacheBefore = cache.stats();
    const CompressTotals compressBefore = compressTotals();
    Ledger ledger(true);
    start = Clock::now();
    const std::vector<StudyRow> replayed = replaySweep(set, cfg, ledger);
    const double tracedWall = secondsSince(start);
    const EncodeCache::Stats cacheAfter = cache.stats();
    const CompressTotals compressAfter = compressTotals();
    report.operation(digestOf(replayed) == reference.get(),
                     "replayed rows differ from Study::run rows");

    addLedgerLayers(values, ledger);
    const double hits =
        static_cast<double>(cacheAfter.hits - cacheBefore.hits);
    const double misses =
        static_cast<double>(cacheAfter.misses - cacheBefore.misses);
    values["formats.encode_cache.hits"] = hits;
    values["formats.encode_cache.misses"] = misses;
    values["formats.encode_cache.hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    values["formats.encode_cache.evictions"] = static_cast<double>(
        cacheAfter.evictions - cacheBefore.evictions);
    const double raw = static_cast<double>(compressAfter.rawBytes -
                                           compressBefore.rawBytes);
    values["compress.streams"] = static_cast<double>(
        compressAfter.streams - compressBefore.streams);
    values["compress.stored_over_raw"] =
        raw > 0 ? static_cast<double>(compressAfter.storedBytes -
                                      compressBefore.storedBytes) /
                      raw
                : 0.0;
    double cycles = 0;
    for (const StudyRow &r : replayed)
        cycles += static_cast<double>(r.totalCycles);
    values["hls.sim_cycles"] = cycles;
    values["matrix.tiles"] =
        tileEvals(replayed) / static_cast<double>(cfg.formats.size());
    values["trace.overhead_frac"] = tracedWall / serialWall - 1.0;
    values["trace.layer_sum_over_wall"] =
        ledger.attributedS("core.study_run") / tracedWall;

    emitLayerMetrics(report, values);
    report.line("parallel sweep " + std::to_string(parallelWall) +
                " s at jobs=" + std::to_string(lanes) +
                "; serial Study::run " + std::to_string(serialWall) +
                " s; traced serial replay " + std::to_string(tracedWall) +
                " s");
    printLayerTable(report, ledger, tracedWall);
    ledger.writeTrace(opts.runDir + "/" + kind.name + ".trace.json",
                      std::string("perfbench.") + kind.name);
}

void
runSweep(const SweepKind &kind, const Options &opts, Report &report)
{
    if (opts.trace)
        runTraced(kind, opts, report);
    else
        runUntraced(kind, opts, report);
}

} // namespace

void
runSweepCatalog(const Options &opts, Report &report)
{
    runSweep({"sweep_catalog", false, catalogWorkloads}, opts, report);
}

void
runSweepSynthCompress(const Options &opts, Report &report)
{
    runSweep({"sweep_synth_compress", true, synthWorkloads}, opts,
             report);
}

} // namespace perfbench
