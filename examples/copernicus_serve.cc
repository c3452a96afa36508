/**
 * @file
 * copernicus_serve — the characterization service daemon.
 *
 *   copernicus_serve                       # serve on the default
 *                                          # Unix socket
 *   copernicus_serve --socket /tmp/c.sock  # choose the socket path
 *   copernicus_serve --tcp 7070            # loopback TCP instead
 *                                          # (0 = ephemeral port,
 *                                          # printed at startup)
 *
 * Operational flags:
 *
 *   --queue N          max in-flight requests before queue_full
 *                      rejections (default 64)
 *   --jobs N           handler pool lanes (default: hardware)
 *   --timeout-ms MS    default per-request deadline for requests that
 *                      do not carry timeout_ms (default: none)
 *   --max-dim N        per-request matrix dimension cap (default 4096)
 *   --memo-bytes N     byte budget of the advise/plan_formats result
 *                      memo (default 8 MiB; 0 disables memoization)
 *   --max-frame-bytes N  per-frame payload cap on binary-framing
 *                      connections (default 16 MiB)
 *   --stats-json PATH  write the serve/thread_pool stat groups as
 *                      JSON at drain
 *   --trace PATH       write the request-lane Chrome trace at drain
 *   --no-lint          skip the startup registry contract check
 *   --lint-full        extend the startup check with the grammar and
 *                      model-vs-walker oracle passes (slower)
 *
 * Observability flags:
 *
 *   --flightrec PATH      where the flight recorder dumps (default
 *                         copernicus_flightrec.json; "" disables the
 *                         drain-time dump but the recorder stays on)
 *   --flight-capacity N   wide events retained in the ring
 *                         (default 512)
 *   --no-observe          turn the whole observability plane off
 *                         (spans, wide events, trace ids)
 *
 * The flight recorder dumps on three triggers besides drain: SIGQUIT
 * (kill -QUIT, without stopping the daemon), an uncaught exception
 * (std::terminate), and the `dump_flightrec` endpoint.
 *
 * The daemon refuses to start (nonzero exit, diagnostic on stderr)
 * when the format registry fails the static schedule contract check —
 * a server built on a broken schedule model would serve wrong numbers
 * for its whole lifetime. SIGINT/SIGTERM trigger a graceful drain:
 * accepting stops, in-flight requests finish and are answered, stats
 * and traces are flushed, and the process exits 0.
 */

#include <atomic>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <exception>
#include <string>

#include "common/status.hh"
#include "serve/server.hh"
#include "trace/flight_recorder.hh"

using namespace copernicus;

namespace {

void
onSignal(int)
{
    Server::requestShutdownFromSignal();
}

/** Where SIGQUIT / terminate dumps land; set before handlers go in. */
std::string flightrec_path;

/**
 * Best-effort black-box dump. Allocating in a signal handler is
 * technically unsafe; this is the documented flight-recorder trade —
 * when the process is wedged or dying, a probably-valid artifact
 * beats a certainly-absent one.
 */
void
dumpFlightRecorder() noexcept
{
    try {
        if (!flightrec_path.empty())
            FlightRecorder::global().dumpToFile(flightrec_path);
    } catch (...) {
        // Nothing sane to do this deep; the dump is best-effort.
    }
}

void
onQuit(int)
{
    // kill -QUIT takes a black-box snapshot without stopping service.
    dumpFlightRecorder();
}

void
onTerminate()
{
    dumpFlightRecorder();
    std::abort();
}

long
numberArg(int argc, char **argv, int &i, const std::string &flag)
{
    fatalIf(i + 1 >= argc, flag + " needs a value");
    char *end = nullptr;
    const long value = std::strtol(argv[++i], &end, 10);
    fatalIf(end == argv[i] || *end != '\0',
            flag + ": '" + argv[i] + "' is not a number");
    return value;
}

ServeOptions
parseArgs(int argc, char **argv)
{
    ServeOptions opts;
    // Binary-level default: a daemon always leaves a black box behind.
    // (The ServeOptions default stays "" so embedding a Server in
    // tests writes no stray files.)
    opts.flightRecPath = "copernicus_flightrec.json";
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (arg == "--socket") {
            fatalIf(i + 1 >= argc, "--socket needs a path");
            opts.socketPath = argv[++i];
        } else if (arg == "--tcp") {
            const long port = numberArg(argc, argv, i, "--tcp");
            fatalIf(port < 0 || port > 65535,
                    "--tcp wants a port in [0, 65535]");
            opts.tcpPort = static_cast<int>(port);
        } else if (arg == "--queue") {
            const long n = numberArg(argc, argv, i, "--queue");
            fatalIf(n < 1, "--queue wants a positive capacity");
            opts.queueCapacity = static_cast<std::size_t>(n);
        } else if (arg == "--jobs") {
            const long n = numberArg(argc, argv, i, "--jobs");
            fatalIf(n < 1, "--jobs wants a positive integer");
            opts.workers = static_cast<unsigned>(n);
        } else if (arg == "--timeout-ms") {
            const long ms = numberArg(argc, argv, i, "--timeout-ms");
            fatalIf(ms < 0, "--timeout-ms wants a non-negative value");
            opts.defaultTimeoutMs = static_cast<double>(ms);
        } else if (arg == "--max-dim") {
            const long n = numberArg(argc, argv, i, "--max-dim");
            fatalIf(n < 1, "--max-dim wants a positive dimension");
            opts.maxMatrixDim = static_cast<Index>(n);
        } else if (arg == "--memo-bytes") {
            const long n = numberArg(argc, argv, i, "--memo-bytes");
            fatalIf(n < 0, "--memo-bytes wants a non-negative budget");
            opts.memoBytes = static_cast<std::uint64_t>(n);
        } else if (arg == "--max-frame-bytes") {
            const long n =
                numberArg(argc, argv, i, "--max-frame-bytes");
            fatalIf(n < 1,
                    "--max-frame-bytes wants a positive payload cap");
            opts.maxFrameBytes = static_cast<std::uint64_t>(n);
        } else if (arg == "--stats-json") {
            fatalIf(i + 1 >= argc, "--stats-json needs a path");
            opts.statsJsonPath = argv[++i];
        } else if (arg == "--trace") {
            fatalIf(i + 1 >= argc, "--trace needs a path");
            opts.tracePath = argv[++i];
        } else if (arg == "--no-lint") {
            opts.checkRegistry = false;
        } else if (arg == "--lint-full") {
            opts.fullLint = true;
        } else if (arg == "--flightrec") {
            fatalIf(i + 1 >= argc, "--flightrec needs a path");
            opts.flightRecPath = argv[++i];
        } else if (arg == "--flight-capacity") {
            const long n =
                numberArg(argc, argv, i, "--flight-capacity");
            fatalIf(n < 1, "--flight-capacity wants a positive count");
            opts.flightRecorderCapacity =
                static_cast<std::size_t>(n);
        } else if (arg == "--no-observe") {
            opts.observability = false;
        } else {
            fatal("copernicus_serve: unknown argument '" + arg + "'");
        }
    }
    return opts;
}

} // namespace

int
main(int argc, char **argv)
{
    try {
        Server server(parseArgs(argc, argv));
        server.start();
        std::signal(SIGINT, onSignal);
        std::signal(SIGTERM, onSignal);
        if (server.options().observability) {
            flightrec_path = server.options().flightRecPath;
            std::signal(SIGQUIT, onQuit);
            std::set_terminate(onTerminate);
        }
        if (server.options().tcpPort >= 0)
            std::printf("copernicus_serve: port %d\n", server.tcpPort());
        std::fflush(stdout);
        server.waitDrained();
        return 0;
    } catch (const Error &e) {
        std::fprintf(stderr, "copernicus_serve: %s\n", e.what());
        return 1;
    }
}
