/**
 * @file
 * Closed-loop load generator for the characterization daemon.
 *
 * Starts an in-process Server on a private Unix socket, then drives it
 * at three offered-load levels (client thread counts below, at, and
 * above the admission queue capacity). Each client thread runs a
 * closed loop — issue a request from the fixed mix, wait for its
 * response, repeat — so offered load is bounded by thread count, the
 * classic closed-system model.
 *
 * The accounting is the point: every request must receive exactly one
 * response (accepted requests a result, shed requests an explicit
 * queue_full), so the bench fails loudly if overload ever turns into a
 * lost or hung response. Emits BENCH_serve_load.json with per-level
 * completed/rejected counts, reject rate, throughput, and the
 * p50/p95/p99 latency of accepted requests.
 *
 * Request mix (closed loop, per iteration): 70% ping (queue-dynamics
 * probe), 20% advise (small real work), 10% plan_formats (heavier
 * work).
 *
 * The main levels run with the observability plane on (the daemon's
 * default: spans, wide events, trace ids). A final at-capacity level
 * reruns against a plane-off server and the JSON records both p99s
 * plus the overhead fraction — the number the plane's "always on"
 * claim rests on. Reported, not asserted: wall-clock latency on shared
 * CI is too noisy for a hard gate.
 *
 * On top of the thread-per-client levels, a poll()-driven sweep drives
 * the epoll server core at 100 / 1000 / 4000 concurrent loopback-TCP
 * connections — far past what a thread per connection could model —
 * once over NDJSON and once over the CPB1 binary framing. Each
 * connection is a tiny closed-loop state machine (build request, send,
 * await response, repeat), so the invariant stays the same: every
 * issued request must be answered, and the sweep fails loudly on any
 * lost response. A final cold/warm pair against the plan_formats
 * endpoint measures the server-side result memo and asserts the warm
 * payload is byte-identical to the populating miss.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <iostream>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include <cerrno>
#include <fcntl.h>
#include <netinet/in.h>
#include <netinet/tcp.h>
#include <poll.h>
#include <sys/resource.h>
#include <sys/socket.h>
#include <unistd.h>

#include "bench_common.hh"
#include "common/json.hh"
#include "serve/client.hh"
#include "serve/framing.hh"
#include "serve/server.hh"

using namespace copernicus;

namespace {

struct LevelResult
{
    unsigned clients = 0;
    std::size_t completed = 0;
    std::size_t rejected = 0;
    std::size_t errors = 0;
    double seconds = 0;
    double p50Us = 0;
    double p95Us = 0;
    double p99Us = 0;

    double
    rejectRate() const
    {
        const std::size_t total = completed + rejected + errors;
        return total == 0 ? 0.0
                          : static_cast<double>(rejected) /
                                static_cast<double>(total);
    }

    double
    throughputRps() const
    {
        return seconds > 0
                   ? static_cast<double>(completed) / seconds
                   : 0.0;
    }
};

double
percentileOf(std::vector<double> sorted, double p)
{
    if (sorted.empty())
        return 0;
    std::sort(sorted.begin(), sorted.end());
    const double rank = p / 100.0 *
                        static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] + (sorted[hi] - sorted[lo]) * frac;
}

/** One client thread's closed loop. */
void
clientLoop(const std::string &socketPath, unsigned seedIndex,
           std::size_t iterations, LevelResult &result,
           std::vector<double> &latenciesUs, std::mutex &resultMutex)
{
    ServeClient client = ServeClient::connectUnix(socketPath);
    client.setReceiveTimeoutMs(30000);

    // The advise/plan requests reuse a small pool of specs, so the
    // result memo sees plan repeats across clients.
    const std::string adviseParams =
        "{\"matrix\": {\"kind\": \"band\", \"n\": 192, \"width\": " +
        std::to_string(4 + (seedIndex % 3) * 4) +
        ", \"seed\": 7}, \"goal\": \"latency\"}";
    const std::string planParams =
        "{\"matrix\": {\"kind\": \"random\", \"n\": 96, \"density\": "
        "0.08, \"seed\": " +
        std::to_string(1 + seedIndex % 2) +
        "}, \"partition_size\": 16, \"formats\": [\"CSR\", \"COO\", "
        "\"ELL\"]}";

    std::size_t completed = 0;
    std::size_t rejected = 0;
    std::size_t errors = 0;
    std::vector<double> latencies;
    latencies.reserve(iterations);

    for (std::size_t i = 0; i < iterations; ++i) {
        const unsigned draw = (seedIndex * 131 + i * 17) % 10;
        const std::string op =
            draw < 7 ? "ping" : draw < 9 ? "advise" : "plan_formats";
        const std::string &params =
            op == "advise" ? adviseParams
            : op == "plan_formats" ? planParams
                                   : std::string();

        const auto start = std::chrono::steady_clock::now();
        const JsonValue response = client.call(op, params);
        const double us =
            std::chrono::duration_cast<std::chrono::microseconds>(
                std::chrono::steady_clock::now() - start)
                .count();

        if (response.boolOr("ok", false)) {
            ++completed;
            latencies.push_back(us);
        } else if (response.stringOr("error", "") == "queue_full") {
            ++rejected;
        } else {
            ++errors;
        }
    }

    const std::lock_guard<std::mutex> lock(resultMutex);
    result.completed += completed;
    result.rejected += rejected;
    result.errors += errors;
    latenciesUs.insert(latenciesUs.end(), latencies.begin(),
                       latencies.end());
}

LevelResult
runLevel(const std::string &socketPath, unsigned clients,
         std::size_t iterationsPerClient)
{
    LevelResult result;
    result.clients = clients;
    std::vector<double> latenciesUs;
    std::mutex resultMutex;

    const auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    threads.reserve(clients);
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&, c] {
            clientLoop(socketPath, c, iterationsPerClient, result,
                       latenciesUs, resultMutex);
        });
    }
    for (std::thread &t : threads)
        t.join();
    result.seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - start)
            .count();

    result.p50Us = percentileOf(latenciesUs, 50);
    result.p95Us = percentileOf(latenciesUs, 95);
    result.p99Us = percentileOf(latenciesUs, 99);

    // The closed-loop invariant: every issued request was answered.
    const std::size_t answered =
        result.completed + result.rejected + result.errors;
    COPERNICUS_FATAL_IF(
        answered != clients * iterationsPerClient,
        "serve_load: lost responses (" + std::to_string(answered) +
            " answered of " +
            std::to_string(clients * iterationsPerClient) +
            " issued)");
    return result;
}

// ---------------------------------------------------------------------
// poll()-driven concurrency sweep (100 / 1000 / 4000 connections).
// ---------------------------------------------------------------------

struct ConcResult
{
    unsigned connections = 0;
    std::string protocol;
    std::size_t completed = 0;
    std::size_t lost = 0;
    double seconds = 0;
    double p50Us = 0;
    double p95Us = 0;
    double p99Us = 0;

    double
    throughputRps() const
    {
        return seconds > 0 ? static_cast<double>(completed) / seconds
                           : 0.0;
    }
};

/** One closed-loop connection state machine in the poll driver. */
struct LoadConn
{
    enum class St
    {
        Sending,
        Receiving,
        Done,
        Lost,
    };

    int fd = -1;
    St st = St::Sending;
    std::string out;
    std::size_t outOff = 0;
    std::string in; ///< NDJSON receive buffer
    FrameDecoder decoder;
    std::size_t remaining = 0; ///< requests still to issue (incl. current)
    std::uint64_t nextStream = 1;
    std::chrono::steady_clock::time_point start;
};

void
buildRequest(LoadConn &conn, bool binary)
{
    conn.out.clear();
    conn.outOff = 0;
    const std::string payload =
        "{\"op\": \"ping\", \"id\": " +
        std::to_string(conn.nextStream) + "}";
    if (binary) {
        if (conn.nextStream == 1)
            conn.out.append(framingMagic);
        appendFrame(conn.out, FrameType::Request, conn.nextStream,
                    payload);
    } else {
        conn.out = payload + "\n";
    }
    ++conn.nextStream;
    conn.st = LoadConn::St::Sending;
    conn.start = std::chrono::steady_clock::now();
}

/** Mark every request this connection still owed as lost. */
void
abandon(LoadConn &conn, ConcResult &result)
{
    result.lost += conn.remaining;
    conn.remaining = 0;
    conn.st = LoadConn::St::Lost;
    if (conn.fd >= 0) {
        ::close(conn.fd);
        conn.fd = -1;
    }
}

ConcResult
runConcurrencyLevel(int port, unsigned connections,
                    std::size_t itersPerConn, bool binary)
{
    ConcResult result;
    result.connections = connections;
    result.protocol = binary ? "binary" : "ndjson";
    std::vector<double> latenciesUs;
    latenciesUs.reserve(connections * itersPerConn);

    // Connect everything up front (the load phase measures request
    // latency, not connection setup). Blocking connect against the
    // event loop's SOMAXCONN backlog, then nonblocking for the driver.
    std::vector<LoadConn> conns(connections);
    for (LoadConn &conn : conns) {
        conn.fd = ::socket(AF_INET, SOCK_STREAM, 0);
        COPERNICUS_FATAL_IF(
            conn.fd < 0, std::string("serve_load: socket(): ") +
                             std::strerror(errno));
        const int one = 1;
        ::setsockopt(conn.fd, IPPROTO_TCP, TCP_NODELAY, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port = htons(static_cast<std::uint16_t>(port));
        COPERNICUS_FATAL_IF(
            ::connect(conn.fd,
                      reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)) != 0,
            std::string("serve_load: connect(): ") +
                std::strerror(errno));
        const int flags = ::fcntl(conn.fd, F_GETFL, 0);
        ::fcntl(conn.fd, F_SETFL, flags | O_NONBLOCK);
        conn.remaining = itersPerConn;
        buildRequest(conn, binary);
    }

    const auto levelStart = std::chrono::steady_clock::now();
    std::vector<pollfd> fds;
    std::vector<std::size_t> fdOwner;
    char buf[65536];
    for (;;) {
        fds.clear();
        fdOwner.clear();
        for (std::size_t i = 0; i < conns.size(); ++i) {
            const LoadConn &conn = conns[i];
            if (conn.st == LoadConn::St::Done ||
                conn.st == LoadConn::St::Lost)
                continue;
            pollfd p{};
            p.fd = conn.fd;
            p.events = conn.st == LoadConn::St::Sending
                           ? POLLOUT
                           : POLLIN;
            fds.push_back(p);
            fdOwner.push_back(i);
        }
        if (fds.empty())
            break;
        const int ready =
            ::poll(fds.data(), static_cast<nfds_t>(fds.size()), 30000);
        if (ready < 0 && errno == EINTR)
            continue;
        COPERNICUS_FATAL_IF(ready < 0, std::string("serve_load: poll(): ") +
                                           std::strerror(errno));
        // A full poll timeout with requests outstanding means the
        // server stalled; abandoning (not hanging) keeps the
        // zero-lost-responses check meaningful.
        if (ready == 0) {
            for (std::size_t i : fdOwner)
                abandon(conns[i], result);
            break;
        }

        for (std::size_t k = 0; k < fds.size(); ++k) {
            const short revents = fds[k].revents;
            if (revents == 0)
                continue;
            LoadConn &conn = conns[fdOwner[k]];
            if ((revents & (POLLERR | POLLNVAL)) != 0) {
                abandon(conn, result);
                continue;
            }

            if (conn.st == LoadConn::St::Sending &&
                (revents & POLLOUT) != 0) {
                while (conn.outOff < conn.out.size()) {
                    const ssize_t n = ::send(
                        conn.fd, conn.out.data() + conn.outOff,
                        conn.out.size() - conn.outOff, MSG_NOSIGNAL);
                    if (n > 0) {
                        conn.outOff += static_cast<std::size_t>(n);
                        continue;
                    }
                    if (n < 0 && errno == EINTR)
                        continue;
                    break;
                }
                if (conn.outOff >= conn.out.size()) {
                    conn.st = LoadConn::St::Receiving;
                } else if (errno != EAGAIN &&
                           errno != EWOULDBLOCK) {
                    abandon(conn, result);
                }
                continue;
            }

            if (conn.st != LoadConn::St::Receiving ||
                (revents & (POLLIN | POLLHUP)) == 0)
                continue;
            bool gotResponse = false;
            bool dead = false;
            for (;;) {
                const ssize_t n =
                    ::recv(conn.fd, buf, sizeof(buf), 0);
                if (n < 0 && errno == EINTR)
                    continue;
                if (n < 0 &&
                    (errno == EAGAIN || errno == EWOULDBLOCK))
                    break;
                if (n <= 0) {
                    dead = true;
                    break;
                }
                if (binary) {
                    conn.decoder.feed(
                        buf, static_cast<std::size_t>(n));
                    Frame frame;
                    while (conn.decoder.next(frame) ==
                           DecodeResult::GotFrame)
                        gotResponse = true;
                } else {
                    conn.in.append(buf,
                                   static_cast<std::size_t>(n));
                    const std::size_t pos = conn.in.find('\n');
                    if (pos != std::string::npos) {
                        conn.in.erase(0, pos + 1);
                        gotResponse = true;
                    }
                }
                if (gotResponse)
                    break;
            }
            if (gotResponse) {
                latenciesUs.push_back(
                    std::chrono::duration<double, std::micro>(
                        std::chrono::steady_clock::now() -
                        conn.start)
                        .count());
                ++result.completed;
                --conn.remaining;
                if (conn.remaining == 0) {
                    conn.st = LoadConn::St::Done;
                    ::close(conn.fd);
                    conn.fd = -1;
                } else {
                    buildRequest(conn, binary);
                }
            } else if (dead) {
                abandon(conn, result);
            }
        }
    }
    result.seconds =
        std::chrono::duration_cast<std::chrono::duration<double>>(
            std::chrono::steady_clock::now() - levelStart)
            .count();
    result.p50Us = percentileOf(latenciesUs, 50);
    result.p95Us = percentileOf(latenciesUs, 95);
    result.p99Us = percentileOf(latenciesUs, 99);
    COPERNICUS_FATAL_IF(result.completed + result.lost !=
                            connections * itersPerConn,
                        "serve_load: concurrency accounting broken");
    return result;
}

/** Lift the fd soft limit to the hard limit (4000 conns x 2 ends). */
void
raiseFdLimit()
{
    rlimit limit{};
    if (::getrlimit(RLIMIT_NOFILE, &limit) == 0 &&
        limit.rlim_cur < limit.rlim_max) {
        limit.rlim_cur = limit.rlim_max;
        ::setrlimit(RLIMIT_NOFILE, &limit);
    }
}

} // namespace

int
main(int argc, char **argv)
{
    benchutil::banner(
        "serve_load",
        "closed-loop load generator against the characterization "
        "daemon: offered load below/at/above the admission queue",
        argc, argv);

    raiseFdLimit();

    const std::string socketPath = "/tmp/copernicus_bench_serve.sock";
    const std::size_t queueCapacity = 4;
    const std::size_t iterations = benchutil::fullScale() ? 400 : 120;

    ServeOptions options;
    options.socketPath = socketPath;
    options.queueCapacity = queueCapacity;
    Server server(std::move(options));
    server.start();

    // Offered loads: under capacity (no shedding expected), at
    // capacity, and 3x over capacity (explicit queue_full shedding).
    const std::vector<unsigned> levels = {
        2, static_cast<unsigned>(queueCapacity),
        static_cast<unsigned>(queueCapacity) * 3};
    std::vector<LevelResult> results;
    for (unsigned clients : levels) {
        std::printf("level: %u clients x %zu iterations...\n", clients,
                    iterations);
        results.push_back(runLevel(socketPath, clients, iterations));
    }

    server.beginShutdown();
    server.waitDrained();

    // Observability overhead: the at-capacity level again, against a
    // fresh server with the plane off. Same socket-path discipline,
    // different path, so a crashed prior run can't alias it.
    const unsigned overheadClients =
        static_cast<unsigned>(queueCapacity);
    std::printf("overhead level: %u clients x %zu iterations "
                "(observability off)...\n",
                overheadClients, iterations);
    const std::string offSocketPath =
        "/tmp/copernicus_bench_serve_off.sock";
    ServeOptions offOptions;
    offOptions.socketPath = offSocketPath;
    offOptions.queueCapacity = queueCapacity;
    offOptions.observability = false;
    Server offServer(std::move(offOptions));
    offServer.start();
    const LevelResult offResult =
        runLevel(offSocketPath, overheadClients, iterations);
    offServer.beginShutdown();
    offServer.waitDrained();

    // results[1] is the at-capacity plane-on run of the same shape.
    const LevelResult &onResult = results[1];
    const double overheadFrac =
        offResult.p99Us > 0
            ? (onResult.p99Us - offResult.p99Us) / offResult.p99Us
            : 0.0;

    // Concurrency sweep: the epoll core at 100/1000/4000 loopback-TCP
    // connections, NDJSON vs binary framing. Queue capacity is lifted
    // above the largest level so the sweep measures the event loop,
    // not admission shedding; total request count per level is held
    // roughly constant so the sizes are comparable.
    const std::size_t sweepRequests =
        benchutil::fullScale() ? 60000 : 20000;
    ServeOptions tcpOptions;
    tcpOptions.socketPath = "/tmp/copernicus_bench_serve_tcp.sock";
    tcpOptions.tcpPort = 0;
    tcpOptions.queueCapacity = 8192;
    Server tcpServer(std::move(tcpOptions));
    tcpServer.start();
    std::vector<ConcResult> sweep;
    for (unsigned connections : {100u, 1000u, 4000u}) {
        const std::size_t iters = std::max<std::size_t>(
            4, sweepRequests / connections);
        for (const bool binary : {false, true}) {
            std::printf("concurrency: %u connections x %zu pings "
                        "(%s)...\n",
                        connections, iters,
                        binary ? "binary" : "ndjson");
            sweep.push_back(runConcurrencyLevel(
                tcpServer.tcpPort(), connections, iters, binary));
            COPERNICUS_FATAL_IF(
                sweep.back().lost != 0,
                "serve_load: " +
                    std::to_string(sweep.back().lost) +
                    " lost responses at " +
                    std::to_string(connections) + " connections");
        }
    }
    tcpServer.beginShutdown();
    tcpServer.waitDrained();

    // Result-memo cold vs warm: the same plan_formats request twice
    // against a plane-off server (no per-request trace ids), so the
    // warm response must be byte-identical to the populating miss.
    const std::string memoSocketPath =
        "/tmp/copernicus_bench_serve_memo.sock";
    ServeOptions memoOptions;
    memoOptions.socketPath = memoSocketPath;
    memoOptions.observability = false;
    Server memoServer(std::move(memoOptions));
    memoServer.start();
    ServeClient memoClient = ServeClient::connectUnix(memoSocketPath);
    memoClient.setReceiveTimeoutMs(30000);
    memoClient.enableBinaryFraming();
    // A matrix heavy enough that the sweep dominates the warm path's
    // unavoidable work (regenerating + content-hashing the matrix for
    // the memo key).
    const std::string memoRequest =
        "{\"op\": \"plan_formats\", \"id\": 1, \"params\": "
        "{\"matrix\": {\"kind\": \"random\", \"n\": 1024, "
        "\"density\": 0.02, \"seed\": 7}, \"partition_size\": 16}}";
    const auto coldStart = std::chrono::steady_clock::now();
    const std::string coldResponse =
        memoClient.requestLine(memoRequest);
    const double memoColdUs =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - coldStart)
            .count();
    const auto warmStart = std::chrono::steady_clock::now();
    const std::string warmResponse =
        memoClient.requestLine(memoRequest);
    const double memoWarmUs =
        std::chrono::duration<double, std::micro>(
            std::chrono::steady_clock::now() - warmStart)
            .count();
    COPERNICUS_FATAL_IF(coldResponse != warmResponse,
                        "serve_load: memo hit payload differs from the "
                        "populating miss");
    memoServer.beginShutdown();
    memoServer.waitDrained();

    std::printf("\n%-8s %10s %10s %8s %12s %10s %10s %10s\n", "clients",
                "completed", "rejected", "rej %", "rps", "p50 us",
                "p95 us", "p99 us");
    for (const LevelResult &r : results) {
        std::printf("%-8u %10zu %10zu %7.2f%% %12.1f %10.1f %10.1f "
                    "%10.1f\n",
                    r.clients, r.completed, r.rejected,
                    100 * r.rejectRate(), r.throughputRps(), r.p50Us,
                    r.p95Us, r.p99Us);
    }
    std::printf("\nobservability overhead at %u clients: p99 %.1f us "
                "(on) vs %.1f us (off), %+.1f%%\n",
                overheadClients, onResult.p99Us, offResult.p99Us,
                100 * overheadFrac);

    std::printf("\n%-12s %-8s %10s %6s %12s %10s %10s %10s\n",
                "connections", "proto", "completed", "lost", "rps",
                "p50 us", "p95 us", "p99 us");
    for (const ConcResult &r : sweep) {
        std::printf("%-12u %-8s %10zu %6zu %12.1f %10.1f %10.1f "
                    "%10.1f\n",
                    r.connections, r.protocol.c_str(), r.completed,
                    r.lost, r.throughputRps(), r.p50Us, r.p95Us,
                    r.p99Us);
    }
    std::printf(
        "note: accepted loopback-TCP connections run with "
        "TCP_NODELAY;\nwithout it Nagle would hold each sub-MSS "
        "response back until the peer's\ndelayed ACK (tens of ms), "
        "which would dominate every latency column above.\n");
    std::printf("\nresult memo (plan_formats, random n=1024): cold "
                "%.1f us, warm %.1f us (%.1fx), payloads "
                "byte-identical\n",
                memoColdUs, memoWarmUs,
                memoWarmUs > 0 ? memoColdUs / memoWarmUs : 0.0);

    const char *jsonPath = "BENCH_serve_load.json";
    std::ofstream json(jsonPath);
    COPERNICUS_FATAL_IF(!json, std::string("cannot open '") + jsonPath + "'");
    json << "{\n  \"queue_capacity\": " << queueCapacity
         << ",\n  \"iterations_per_client\": " << iterations
         << ",\n  \"levels\": [\n";
    for (std::size_t i = 0; i < results.size(); ++i) {
        const LevelResult &r = results[i];
        json << "    {\"clients\": " << r.clients
             << ", \"completed\": " << r.completed
             << ", \"rejected\": " << r.rejected
             << ", \"errors\": " << r.errors << ", \"reject_rate\": ";
        writeJsonNumber(json, r.rejectRate());
        json << ", \"throughput_rps\": ";
        writeJsonNumber(json, r.throughputRps());
        json << ", \"p50_us\": ";
        writeJsonNumber(json, r.p50Us);
        json << ", \"p95_us\": ";
        writeJsonNumber(json, r.p95Us);
        json << ", \"p99_us\": ";
        writeJsonNumber(json, r.p99Us);
        json << '}' << (i + 1 < results.size() ? "," : "") << '\n';
    }
    json << "  ],\n  \"observability\": {\"clients\": "
         << overheadClients << ", \"p99_on_us\": ";
    writeJsonNumber(json, onResult.p99Us);
    json << ", \"p99_off_us\": ";
    writeJsonNumber(json, offResult.p99Us);
    json << ", \"p99_overhead_frac\": ";
    writeJsonNumber(json, overheadFrac);
    json << "},\n  \"tcp_nodelay\": true,\n  \"concurrency\": [\n";
    for (std::size_t i = 0; i < sweep.size(); ++i) {
        const ConcResult &r = sweep[i];
        json << "    {\"connections\": " << r.connections
             << ", \"protocol\": \"" << r.protocol
             << "\", \"completed\": " << r.completed
             << ", \"lost\": " << r.lost << ", \"throughput_rps\": ";
        writeJsonNumber(json, r.throughputRps());
        json << ", \"p50_us\": ";
        writeJsonNumber(json, r.p50Us);
        json << ", \"p95_us\": ";
        writeJsonNumber(json, r.p95Us);
        json << ", \"p99_us\": ";
        writeJsonNumber(json, r.p99Us);
        json << '}' << (i + 1 < sweep.size() ? "," : "") << '\n';
    }
    json << "  ],\n  \"memo\": {\"op\": \"plan_formats\", \"cold_us\": ";
    writeJsonNumber(json, memoColdUs);
    json << ", \"warm_us\": ";
    writeJsonNumber(json, memoWarmUs);
    json << ", \"speedup\": ";
    writeJsonNumber(json,
                    memoWarmUs > 0 ? memoColdUs / memoWarmUs : 0.0);
    json << ", \"byte_identical\": true}\n}\n";
    std::cout << "wrote " << jsonPath << '\n';
    return 0;
}
