/**
 * @file
 * Command-line characterizer: the whole library behind one binary.
 *
 *   copernicus_cli                        # demo matrix
 *   copernicus_cli matrix.mtx            # characterize a file
 *   copernicus_cli matrix.mtx 8,16,32    # choose partition sizes
 *   copernicus_cli matrix.mtx 16 out.csv # also write CSV rows
 *
 * Observability flags (combinable with the positionals above):
 *
 *   --trace out.json       Chrome trace_event timeline of the
 *                          event-driven pipeline simulation, one trace
 *                          process per format (open in Perfetto or
 *                          chrome://tracing)
 *   --stats-json out.json  the per-format pipeline StatGroups (and the
 *                          profile group with --profile) as JSON, on
 *                          top of the text dump
 *   --profile              time the host-side hot paths (encoders,
 *                          Study::run, scheduler) and dump the profile
 *                          StatGroup
 *   --jobs N               worker lanes for the parallel sweep paths
 *                          (Study::run, planFormats); equivalent to
 *                          COPERNICUS_JOBS=N, default = hardware
 *                          concurrency. Results are bit-identical at
 *                          any setting.
 *   --lint                 run the multi-pass static analyzer (same
 *                          driver as copernicus_lint) at the selected
 *                          partition sizes and exit with its status
 *                          instead of characterizing anything.
 *                          Forwards the analyzer flags: --list-passes,
 *                          --passes=a,b, --json, --sarif=PATH,
 *                          --baseline=PATH, --werror, --no-oracle,
 *                          --no-grammar, --no-streams
 *
 * Client mode (talks to a running copernicus_serve daemon instead of
 * characterizing in-process):
 *
 *   --connect PATH         connect to the daemon's Unix socket
 *   --connect-tcp PORT     connect to the daemon's loopback TCP port
 *   --binary               negotiate the CPB1 binary framing for the
 *                          connection (default: NDJSON lines)
 *   --op NAME              endpoint to call (default ping)
 *   --params JSON          raw params object for the request
 *   --timeout-ms MS        server-side deadline for the request
 *
 * In client mode the raw response line is printed to stdout and the
 * exit status reflects the response's "ok" field.
 *
 * Observability client modes (need --connect/--connect-tcp except
 * --check-exposition, which is offline):
 *
 *   --metrics              scrape the daemon's Prometheus exposition
 *                          and print the raw text body
 *   --check-exposition F   validate file F against the Prometheus
 *                          text-format rules (TYPE before samples, no
 *                          family interleaving, monotonic cumulative
 *                          histogram buckets, +Inf == _count); exit
 *                          nonzero with a diagnostic on violation
 *   --top                  poll the stats endpoint and render a live
 *                          per-endpoint board: request counts,
 *                          p50/p95/p99 latency, queue depth, and
 *                          in-flight request ages
 *   --interval-ms MS       --top refresh period (default 1000)
 *   --iters N              stop --top after N refreshes (default:
 *                          until the connection drops or Ctrl-C)
 *
 * Prints the full format x partition metric table, the Figure-3
 * partition statistics, the adaptive per-tile plan, and the advisor's
 * per-goal recommendations.
 */

#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iostream>
#include <map>
#include <memory>
#include <sstream>
#include <thread>

#include <unistd.h>

#include "analysis/lint_driver.hh"
#include "analysis/schedule_check.hh"
#include "analysis/stats_report.hh"
#include "analysis/table_writer.hh"
#include "common/prometheus.hh"
#include "common/rng.hh"
#include "common/thread_pool.hh"
#include "core/advisor.hh"
#include "core/scheduler.hh"
#include "core/study.hh"
#include "matrix/mm_io.hh"
#include "matrix/stats.hh"
#include "pipeline/event_sim.hh"
#include "serve/client.hh"
#include "serve/protocol_doc.hh"
#include "trace/profile.hh"
#include "trace/trace_writer.hh"
#include "workloads/generators.hh"

using namespace copernicus;

namespace {

std::vector<Index>
parsePartitionSizes(const std::string &arg)
{
    std::vector<Index> sizes;
    std::istringstream in(arg);
    std::string token;
    while (std::getline(in, token, ','))
        sizes.push_back(static_cast<Index>(std::stoul(token)));
    fatalIf(sizes.empty(), "no partition sizes parsed from '" + arg +
                               "'");
    return sizes;
}

/** Flags plus the surviving positional arguments, in order. */
struct CliOptions
{
    std::string tracePath;
    std::string statsJsonPath;
    bool profile = false;
    bool lint = false;
    LintDriverOptions lintDriver;
    unsigned jobs = 0;
    std::vector<std::string> positional;

    /** Client mode: non-empty path or non-negative port selects it. */
    std::string connectPath;
    int connectTcpPort = -1;
    bool binaryFraming = false;
    std::string op = "ping";
    std::string paramsJson;
    double timeoutMs = 0;

    /** Observability client modes. */
    bool metrics = false;
    bool top = false;
    std::string checkExpositionPath;
    double intervalMs = 1000;
    long topIters = 0; ///< 0 = poll until the connection drops
};

CliOptions
parseArgs(int argc, char **argv)
{
    CliOptions opts;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--profile") {
            opts.profile = true;
        } else if (arg == "--lint") {
            opts.lint = true;
        } else if (arg == "--list-passes") {
            opts.lint = true;
            opts.lintDriver.listPasses = true;
        } else if (arg == "--lint-json" || arg == "--json") {
            opts.lintDriver.json = true;
        } else if (arg == "--werror") {
            opts.lintDriver.werror = true;
        } else if (arg == "--no-oracle") {
            opts.lintDriver.lint.runOracle = false;
        } else if (arg == "--no-grammar") {
            opts.lintDriver.lint.runGrammar = false;
        } else if (arg == "--no-streams") {
            opts.lintDriver.lint.runStreams = false;
        } else if (arg.rfind("--passes=", 0) == 0) {
            std::istringstream names(arg.substr(9));
            std::string token;
            while (std::getline(names, token, ','))
                if (!token.empty())
                    opts.lintDriver.passes.push_back(token);
        } else if (arg.rfind("--sarif=", 0) == 0) {
            opts.lintDriver.sarifPath = arg.substr(8);
        } else if (arg.rfind("--baseline=", 0) == 0) {
            opts.lintDriver.baselinePath = arg.substr(11);
        } else if (arg == "--trace" || arg == "--stats-json") {
            fatalIf(i + 1 >= argc, arg + " needs a file argument");
            (arg == "--trace" ? opts.tracePath
                              : opts.statsJsonPath) = argv[++i];
        } else if (arg == "--jobs") {
            fatalIf(i + 1 >= argc, "--jobs needs a count argument");
            const long n = std::strtol(argv[++i], nullptr, 10);
            fatalIf(n < 1, "--jobs wants a positive integer");
            opts.jobs = static_cast<unsigned>(n);
        } else if (arg == "--connect") {
            fatalIf(i + 1 >= argc, "--connect needs a socket path");
            opts.connectPath = argv[++i];
        } else if (arg == "--connect-tcp") {
            fatalIf(i + 1 >= argc, "--connect-tcp needs a port");
            const long port = std::strtol(argv[++i], nullptr, 10);
            fatalIf(port < 1 || port > 65535,
                    "--connect-tcp wants a port in [1, 65535]");
            opts.connectTcpPort = static_cast<int>(port);
        } else if (arg == "--binary") {
            opts.binaryFraming = true;
        } else if (arg == "--op") {
            fatalIf(i + 1 >= argc, "--op needs an endpoint name");
            opts.op = argv[++i];
        } else if (arg == "--params") {
            fatalIf(i + 1 >= argc, "--params needs a JSON object");
            opts.paramsJson = argv[++i];
        } else if (arg == "--timeout-ms") {
            fatalIf(i + 1 >= argc, "--timeout-ms needs a value");
            opts.timeoutMs = std::strtod(argv[++i], nullptr);
            fatalIf(opts.timeoutMs < 0,
                    "--timeout-ms wants a non-negative value");
        } else if (arg == "--metrics") {
            opts.metrics = true;
        } else if (arg == "--top") {
            opts.top = true;
        } else if (arg == "--check-exposition") {
            fatalIf(i + 1 >= argc,
                    "--check-exposition needs a file argument");
            opts.checkExpositionPath = argv[++i];
        } else if (arg == "--interval-ms") {
            fatalIf(i + 1 >= argc, "--interval-ms needs a value");
            opts.intervalMs = std::strtod(argv[++i], nullptr);
            fatalIf(opts.intervalMs < 0,
                    "--interval-ms wants a non-negative value");
        } else if (arg == "--iters") {
            fatalIf(i + 1 >= argc, "--iters needs a count");
            opts.topIters = std::strtol(argv[++i], nullptr, 10);
            fatalIf(opts.topIters < 1,
                    "--iters wants a positive count");
        } else {
            opts.positional.push_back(arg);
        }
    }
    return opts;
}

/**
 * --check-exposition: validate a Prometheus text file offline. This is
 * the checker the CI serve job runs against a live scrape, so its exit
 * status is the contract: 0 = valid, 1 = violation (with the reason on
 * stderr).
 */
int
checkExposition(const std::string &path)
{
    std::ifstream in(path);
    fatalIf(!in, "cannot open '" + path + "'");
    std::ostringstream buf;
    buf << in.rdbuf();
    std::string error;
    if (!validatePrometheusText(buf.str(), error)) {
        std::fprintf(stderr, "check-exposition: %s: %s\n",
                     path.c_str(), error.c_str());
        return 1;
    }
    std::printf("check-exposition: %s: ok\n", path.c_str());
    return 0;
}

/** --metrics: scrape the daemon and print the raw exposition body. */
int
scrapeMetrics(ServeClient &client, double timeoutMs)
{
    const JsonValue response = client.call("metrics", "", timeoutMs);
    if (!response.boolOr("ok", false)) {
        std::fprintf(stderr, "metrics: daemon answered: %s\n",
                     response.stringOr("error", "unknown").c_str());
        return 1;
    }
    const JsonValue *result = response.find("result");
    fatalIf(result == nullptr || !result->isObject(),
            "metrics: response carries no result object");
    std::fputs(result->stringOr("body", "").c_str(), stdout);
    return 0;
}

/** Per-endpoint aggregate assembled from one stats-endpoint poll. */
struct TopRow
{
    double accepted = 0;
    double completed = 0;
    double errors = 0;
    double p50 = 0, p95 = 0, p99 = 0;
    bool hasLatency = false;
};

/** Render one --top frame from the stats endpoint's result object. */
void
renderTopFrame(const JsonValue &result, long iter)
{
    // Fold the serve group's flat stat list ("<endpoint>.accepted",
    // "<endpoint>.latency_us", ...) into per-endpoint rows. Endpoint
    // wire names never contain '.', so the first dot splits prefix
    // from counter; non-endpoint prefixes (bad_lines) simply never
    // accumulate an "accepted" and are filtered below.
    std::map<std::string, TopRow> rows;
    const JsonValue *groups = result.find("groups");
    if (groups != nullptr && groups->isArray()) {
        for (const JsonValue &group : groups->elements) {
            if (group.stringOr("group", "") != "serve")
                continue;
            const JsonValue *stats = group.find("stats");
            if (stats == nullptr || !stats->isArray())
                continue;
            for (const JsonValue &stat : stats->elements) {
                const std::string name = stat.stringOr("name", "");
                const std::size_t dot = name.find('.');
                if (dot == std::string::npos)
                    continue;
                TopRow &row = rows[name.substr(0, dot)];
                const std::string what = name.substr(dot + 1);
                if (what == "accepted")
                    row.accepted = stat.numberOr("value", 0);
                else if (what == "completed")
                    row.completed = stat.numberOr("value", 0);
                else if (what == "errors")
                    row.errors = stat.numberOr("value", 0);
                else if (what == "latency_us" &&
                         stat.numberOr("samples", 0) > 0) {
                    row.hasLatency = true;
                    row.p50 = stat.numberOr("p50", 0);
                    row.p95 = stat.numberOr("p95", 0);
                    row.p99 = stat.numberOr("p99", 0);
                }
            }
        }
    }

    std::printf("copernicus --top  (refresh %ld)  queue_depth %g\n\n",
                iter, result.numberOr("queue_depth", 0));
    TableWriter board({"endpoint", "accepted", "ok", "err", "p50 us",
                       "p95 us", "p99 us"});
    for (const auto &[endpoint, row] : rows) {
        if (row.accepted == 0)
            continue;
        const auto count = [](double v) {
            return std::to_string(static_cast<long long>(v));
        };
        board.addRow(
            {endpoint, count(row.accepted), count(row.completed),
             count(row.errors),
             row.hasLatency ? TableWriter::num(row.p50, 6) : "-",
             row.hasLatency ? TableWriter::num(row.p95, 6) : "-",
             row.hasLatency ? TableWriter::num(row.p99, 6) : "-"});
    }
    board.print(std::cout);

    const JsonValue *inflight = result.find("inflight");
    if (inflight != nullptr && inflight->isArray() &&
        !inflight->elements.empty()) {
        std::printf("\nin flight:");
        for (const JsonValue &req : inflight->elements)
            std::printf(" %s#%g(%.0fus)",
                        req.stringOr("endpoint", "?").c_str(),
                        req.numberOr("id", 0),
                        req.numberOr("age_us", 0));
        std::printf("\n");
    }
    std::fflush(stdout);
}

/** --top: poll the stats endpoint and render the live board. */
int
runTop(ServeClient &client, const CliOptions &opts)
{
    const bool tty = ::isatty(STDOUT_FILENO) != 0;
    for (long iter = 1;; ++iter) {
        const JsonValue response =
            client.call("stats", "", opts.timeoutMs);
        if (!response.boolOr("ok", false)) {
            std::fprintf(stderr, "top: daemon answered: %s\n",
                         response.stringOr("error", "unknown")
                             .c_str());
            return 1;
        }
        const JsonValue *result = response.find("result");
        fatalIf(result == nullptr || !result->isObject(),
                "top: stats response carries no result object");
        if (tty)
            std::printf("\033[H\033[2J"); // home + clear, like top(1)
        else if (iter > 1)
            std::printf("\n");
        renderTopFrame(*result, iter);
        if (opts.topIters > 0 && iter >= opts.topIters)
            return 0;
        std::this_thread::sleep_for(std::chrono::duration<double,
                                                          std::milli>(
            opts.intervalMs));
    }
}

} // namespace

int
main(int argc, char **argv)
{
    const CliOptions opts = parseArgs(argc, argv);
    if (!opts.checkExpositionPath.empty())
        return checkExposition(opts.checkExpositionPath);
    fatalIf((opts.metrics || opts.top) && opts.connectPath.empty() &&
                opts.connectTcpPort < 0,
            "--metrics/--top need --connect or --connect-tcp");
    if (!opts.connectPath.empty() || opts.connectTcpPort >= 0) {
        // Client mode: one request against a running daemon. The raw
        // response line goes to stdout so shell pipelines can parse it.
        ServeClient client =
            opts.connectTcpPort >= 0
                ? ServeClient::connectTcp(opts.connectTcpPort)
                : ServeClient::connectUnix(opts.connectPath);
        if (opts.binaryFraming)
            client.enableBinaryFraming();
        if (opts.metrics)
            return scrapeMetrics(client, opts.timeoutMs);
        if (opts.top)
            return runTop(client, opts);
        std::ostringstream request;
        request << "{\"op\": ";
        writeJsonString(request, opts.op);
        request << ", \"id\": 1";
        if (opts.timeoutMs > 0) {
            request << ", \"timeout_ms\": ";
            writeJsonNumber(request, opts.timeoutMs);
        }
        if (!opts.paramsJson.empty())
            request << ", \"params\": " << opts.paramsJson;
        request << '}';
        const std::string response = client.requestLine(request.str());
        std::printf("%s\n", response.c_str());
        JsonValue parsed;
        return parseJson(response, parsed) &&
                       parsed.boolOr("ok", false)
                   ? 0
                   : 1;
    }
    if (opts.lint) {
        LintDriverOptions driver = opts.lintDriver;
        if (opts.positional.size() > 1)
            driver.lint.partitionSizes =
                parsePartitionSizes(opts.positional[1]);
        const ProtocolSurface surface = collectServeProtocolSurface();
        driver.lint.protocol = &surface;
        if (!driver.json && !driver.listPasses)
            std::printf("copernicus_cli --lint — multi-pass "
                        "schedule/format analyzer\n");
        return runLintDriver(driver, std::cout);
    }
    std::printf("copernicus_cli — sparse-format characterizer\n\n");
    if (opts.profile || !opts.statsJsonPath.empty())
        ProfileRegistry::global().setEnabled(true);
    if (opts.jobs != 0)
        setJobsOverride(opts.jobs);
    if (!opts.tracePath.empty())
        ThreadPool::setLaneRecording(true);

    TripletMatrix matrix = [&] {
        if (!opts.positional.empty())
            return readMatrixMarketFile(opts.positional[0]);
        std::printf("(no file given; using a demo 512x512 random "
                    "matrix at density 0.03)\n\n");
        Rng rng(123);
        return randomMatrix(512, 0.03, rng);
    }();

    const std::vector<Index> sizes =
        opts.positional.size() > 1
            ? parsePartitionSizes(opts.positional[1])
            : std::vector<Index>{8, 16, 32};

    const auto stats = computeStats(matrix);
    std::printf("matrix: %u x %u, %zu nnz, density %.5g, bandwidth %u, "
                "%u diagonals\n\n",
                stats.rows, stats.cols, stats.nnz, stats.density,
                stats.bandwidth, stats.nonZeroDiagonals);

    // Figure-3 style partition statistics.
    TableWriter fig3({"p", "non-zero tiles", "zero tiles",
                      "partition density %", "row density %",
                      "nnz rows %"});
    for (Index p : sizes) {
        const auto pstats = computePartitionStats(matrix, p);
        fig3.addRow({std::to_string(p),
                     std::to_string(pstats.nonZeroTiles),
                     std::to_string(pstats.zeroTiles),
                     TableWriter::num(100 * pstats.avgPartitionDensity,
                                      3),
                     TableWriter::num(100 * pstats.avgRowDensity, 3),
                     TableWriter::num(
                         100 * pstats.avgNonZeroRowFraction, 3)});
    }
    fig3.print(std::cout);
    std::printf("\n");

    // Full characterization.
    StudyConfig cfg;
    cfg.partitionSizes = sizes;
    cfg.jobs = opts.jobs;
    Study study(cfg);
    study.addWorkload("input", matrix);
    const auto result = study.run();

    TableWriter metrics({"format", "p", "sigma", "balance",
                         "throughput MB/s", "bw util", "latency (us)",
                         "dyn W"});
    for (const auto &row : result.rows) {
        metrics.addRow({std::string(formatName(row.format)),
                        std::to_string(row.partitionSize),
                        TableWriter::num(row.meanSigma, 3),
                        TableWriter::num(row.balanceRatio, 3),
                        TableWriter::num(row.throughput / 1e6, 4),
                        TableWriter::num(row.bandwidthUtilization, 3),
                        TableWriter::num(row.seconds * 1e6, 4),
                        TableWriter::num(row.power.dynamicW(), 2)});
    }
    metrics.print(std::cout);
    if (opts.positional.size() > 2) {
        metrics.writeCsvFile(opts.positional[2]);
        std::printf("\nwrote CSV to %s\n",
                    opts.positional[2].c_str());
    }

    // Adaptive plan at the first partition size.
    const auto parts = partition(matrix, sizes.front());
    const auto plan = planFormats(parts, paperFormats());
    const auto adaptive = runPipelineMixed(parts, plan.perTile);
    std::printf("\nadaptive per-tile plan at p=%u:", sizes.front());
    for (const auto &[kind, count] : plan.histogram)
        std::printf(" %s:%zu", std::string(formatName(kind)).c_str(),
                    count);
    std::printf("\nadaptive total latency: %.4f us\n",
                adaptive.seconds * 1e6);

    // Advisor.
    std::printf("\nadvisor recommendations:\n");
    for (AdvisorGoal goal :
         {AdvisorGoal::Latency, AdvisorGoal::Throughput,
          AdvisorGoal::Power, AdvisorGoal::Bandwidth}) {
        const auto rec = advise(stats, goal);
        std::printf("  %-22s %s at %ux%u\n",
                    std::string(goalName(goal)).c_str(),
                    std::string(formatName(rec.format)).c_str(),
                    rec.partitionSize, rec.partitionSize);
    }

    // Chrome trace of the exact (event-driven) pipeline timeline at
    // the first partition size, one trace process per format.
    if (!opts.tracePath.empty()) {
        TraceWriter writer;
        for (FormatKind kind : cfg.formats)
            runEventSim(parts, kind, cfg.hls, defaultRegistry(), 2,
                        &writer);
        // Pool workers never write into a TraceWriter directly; their
        // activity was recorded as lane spans and is serialised here.
        emitWorkerLanes(writer, ThreadPool::drainLaneSpans());
        writer.writeFile(opts.tracePath);
        std::printf("\nwrote Chrome trace (%zu events) to %s — open "
                    "in Perfetto or chrome://tracing\n",
                    writer.eventCount(), opts.tracePath.c_str());
    }

    // Machine-readable stats: the per-format pipeline groups at the
    // first partition size (text dump + JSON), plus the profile group.
    if (!opts.statsJsonPath.empty()) {
        std::vector<std::unique_ptr<PipelineStats>> all;
        std::vector<const StatGroup *> groups;
        for (FormatKind kind : cfg.formats) {
            all.push_back(std::make_unique<PipelineStats>(
                runPipeline(parts, kind, cfg.hls)));
            groups.push_back(&all.back()->group());
        }
        std::printf("\n");
        for (const auto &stats_group : all)
            stats_group->dump(std::cout);

        // Built last so it sees every timed scope of this run.
        std::unique_ptr<ProfileStats> prof;
        if (opts.profile) {
            prof = std::make_unique<ProfileStats>();
            prof->dump(std::cout);
            groups.push_back(&prof->group());
        }
        const ThreadPoolStats poolStats;
        groups.push_back(&poolStats.group());
        std::ofstream out(opts.statsJsonPath);
        fatalIf(!out, "cannot open '" + opts.statsJsonPath + "'");
        dumpGroupsJson(out, groups);
        std::printf("\nwrote stats JSON (%zu groups) to %s\n",
                    groups.size(), opts.statsJsonPath.c_str());
    } else if (opts.profile) {
        std::printf("\n");
        ProfileStats().dump(std::cout);
    }
    return 0;
}
