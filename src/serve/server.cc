#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <fstream>
#include <sstream>
#include <thread>

#include <netinet/in.h>
#include <netinet/tcp.h>
#include <sys/epoll.h>
#include <sys/eventfd.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/fnv.hh"
#include "common/logging.hh"
#include "common/prometheus.hh"
#include "common/status.hh"
#include "common/trace_context.hh"
#include "compress/second_stage.hh"
#include "core/scheduler.hh"
#include "core/study.hh"
#include "formats/registry.hh"
#include "formats/validate.hh"
#include "matrix/stats.hh"
#include "serve/protocol_doc.hh"
#include "store/container.hh"
#include "store/sweep_journal.hh"
#include "trace/flight_recorder.hh"
#include "trace/span.hh"
#include "trace/trace_writer.hh"

namespace copernicus {

namespace {

/** Set by requestShutdownFromSignal(); polled by the event-loop tick. */
std::atomic<bool> signalShutdown{false};

/**
 * A connection stops being read once more than txHighWater response
 * bytes wait to be sent to it, and is read again below txLowWater.
 */
constexpr std::size_t txHighWater = 1 << 20;
constexpr std::size_t txLowWater = 256 << 10;

std::string
jsonStr(std::string_view text)
{
    std::ostringstream out;
    writeJsonString(out, text);
    return out.str();
}

std::string
jsonNum(double v)
{
    std::ostringstream out;
    writeJsonNumber(out, v);
    return out.str();
}

} // namespace

Server::Conn::~Conn()
{
    if (fd >= 0)
        ::close(fd);
}

Server::Server(ServeOptions options) : opts(std::move(options))
{
    COPERNICUS_FATAL_IF(opts.queueCapacity == 0,
                        "serve: queue capacity must be at least 1");
    connections = std::make_unique<ScalarStat>(
        grp, "connections", "client connections accepted");
    badLines = std::make_unique<ScalarStat>(
        grp, "bad_lines", "request lines that failed to parse");
    badLinesMalformed = std::make_unique<ScalarStat>(
        grp, "bad_lines.malformed_json",
        "request lines that were not valid JSON");
    badLinesUnknownOp = std::make_unique<ScalarStat>(
        grp, "bad_lines.unknown_op",
        "well-formed requests naming an op we do not serve");
    badLinesOther = std::make_unique<ScalarStat>(
        grp, "bad_lines.other",
        "other frame errors (non-object, missing op, bad params)");
    framesOversized = std::make_unique<ScalarStat>(
        grp, "frames.oversized",
        "binary frames rejected for exceeding the payload cap");
    framesProtocolError = std::make_unique<ScalarStat>(
        grp, "frames.protocol_error",
        "binary frames violating the framing protocol");
    framesTruncated = std::make_unique<ScalarStat>(
        grp, "frames.truncated",
        "binary connections that ended mid-frame");
    streamsCancelled = std::make_unique<ScalarStat>(
        grp, "streams.cancelled",
        "streams cancelled by an explicit cancel frame");
    endpointStats.resize(allEndpoints().size());
    for (std::size_t i = 0; i < allEndpoints().size(); ++i) {
        const std::string prefix(endpointName(allEndpoints()[i]));
        EndpointStats &s = endpointStats[i];
        s.accepted = std::make_unique<ScalarStat>(
            grp, prefix + ".accepted", "requests admitted");
        s.rejected = std::make_unique<ScalarStat>(
            grp, prefix + ".rejected",
            "requests shed (queue_full / shutting_down)");
        s.completed = std::make_unique<ScalarStat>(
            grp, prefix + ".completed", "requests answered ok");
        s.errors = std::make_unique<ScalarStat>(
            grp, prefix + ".errors",
            "admitted requests answered with an error");
        s.latencyUs = std::make_unique<DistributionStat>(
            grp, prefix + ".latency_us",
            "admitted-request latency (microseconds)", 0, 100000, 1000);
    }
    memo = std::make_unique<ResultMemo>(opts.memoBytes);
}

Server::~Server()
{
    if (started) {
        beginShutdown();
        waitDrained();
    }
}

Server::EndpointStats &
Server::statsFor(Endpoint endpoint)
{
    const auto index = static_cast<std::size_t>(endpoint);
    COPERNICUS_PANIC_IF(index >= endpointStats.size(),
                        "serve: endpoint index out of range");
    return endpointStats[index];
}

std::uint64_t
Server::nowUs() const
{
    // The shared observability clock, so request spans, wide events
    // and SpanCollector spans all line up on one axis.
    return observeNowUs();
}

void
Server::requestShutdownFromSignal()
{
    signalShutdown.store(true, std::memory_order_relaxed);
}

void
Server::bindSocket()
{
    if (opts.tcpPort >= 0) {
        listenFd = ::socket(AF_INET,
                            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                            0);
        COPERNICUS_FATAL_IF(listenFd < 0, std::string("serve: socket(): ") +
                                              std::strerror(errno));
        const int one = 1;
        ::setsockopt(listenFd, SOL_SOCKET, SO_REUSEADDR, &one,
                     sizeof(one));
        sockaddr_in addr{};
        addr.sin_family = AF_INET;
        addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
        addr.sin_port =
            htons(static_cast<std::uint16_t>(opts.tcpPort));
        COPERNICUS_FATAL_IF(::bind(listenFd,
                                   reinterpret_cast<const sockaddr *>(&addr),
                                   sizeof(addr)) != 0,
                            "serve: cannot bind 127.0.0.1:" +
                                std::to_string(opts.tcpPort) + ": " +
                                std::strerror(errno));
        sockaddr_in bound{};
        socklen_t len = sizeof(bound);
        COPERNICUS_FATAL_IF(::getsockname(listenFd,
                                          reinterpret_cast<sockaddr *>(&bound),
                                          &len) != 0,
                            std::string("serve: getsockname(): ") +
                                std::strerror(errno));
        boundTcpPort = ntohs(bound.sin_port);
    } else {
        COPERNICUS_FATAL_IF(opts.socketPath.empty(),
                            "serve: a socket path or --tcp port is required");
        sockaddr_un addr{};
        COPERNICUS_FATAL_IF(opts.socketPath.size() >= sizeof(addr.sun_path),
                            "serve: socket path '" + opts.socketPath +
                                "' is too long for sockaddr_un");
        listenFd = ::socket(AF_UNIX,
                            SOCK_STREAM | SOCK_NONBLOCK | SOCK_CLOEXEC,
                            0);
        COPERNICUS_FATAL_IF(listenFd < 0, std::string("serve: socket(): ") +
                                              std::strerror(errno));
        ::unlink(opts.socketPath.c_str());
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path, opts.socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        COPERNICUS_FATAL_IF(::bind(listenFd,
                                   reinterpret_cast<const sockaddr *>(&addr),
                                   sizeof(addr)) != 0,
                            "serve: cannot bind '" + opts.socketPath +
                                "': " + std::strerror(errno));
    }
    // SOMAXCONN instead of a hand-picked backlog: the load benchmark
    // opens thousands of connections in a burst, and a short backlog
    // turns that burst into ECONNREFUSED/retry latency at the client.
    COPERNICUS_FATAL_IF(
        ::listen(listenFd, SOMAXCONN) != 0,
        std::string("serve: listen(): ") + std::strerror(errno));
}

void
Server::start()
{
    COPERNICUS_PANIC_IF(started, "serve: start() called twice");

    if (opts.observability) {
        FlightRecorder::global().setCapacity(
            opts.flightRecorderCapacity);
        if (!SpanCollector::global().enabled()) {
            SpanCollector::global().setEnabled(true);
            observingSpans = true;
        }
    }

    // One lane more than the handler concurrency: the event loop must
    // never execute a handler inline (ThreadPool::submit degrades to
    // inline execution on a 1-lane pool), or a sweep would stall every
    // other connection's I/O. effectiveJobs(workers) lanes do handler
    // work; the +1 lane is the loop's submitting thread, which never
    // participates.
    pool = std::make_unique<ThreadPool>(effectiveJobs(opts.workers) + 1);
    bindSocket();

    epollFd = ::epoll_create1(EPOLL_CLOEXEC);
    COPERNICUS_FATAL_IF(epollFd < 0, std::string("serve: epoll_create1(): ") +
                                         std::strerror(errno));
    wakeFd = ::eventfd(0, EFD_NONBLOCK | EFD_CLOEXEC);
    COPERNICUS_FATAL_IF(wakeFd < 0, std::string("serve: eventfd(): ") +
                                        std::strerror(errno));
    epoll_event ev{};
    ev.events = EPOLLIN;
    ev.data.fd = listenFd;
    COPERNICUS_FATAL_IF(
        ::epoll_ctl(epollFd, EPOLL_CTL_ADD, listenFd, &ev) != 0,
        std::string("serve: epoll_ctl(listen): ") +
            std::strerror(errno));
    ev.data.fd = wakeFd;
    COPERNICUS_FATAL_IF(::epoll_ctl(epollFd, EPOLL_CTL_ADD, wakeFd, &ev) != 0,
                        std::string("serve: epoll_ctl(wake): ") +
                            std::strerror(errno));

    started = true;
    loopExit.store(false, std::memory_order_relaxed);
    loopThread = std::thread([this] { loopMain(); });

    if (opts.tcpPort >= 0) {
        inform("serve: listening on 127.0.0.1:" +
                std::to_string(boundTcpPort));
    } else {
        inform("serve: listening on " + opts.socketPath);
    }
}

bool
Server::accepting() const
{
    const std::lock_guard<std::mutex> lock(admitMutex);
    return started && !draining;
}

Server::Admit
Server::tryAdmit()
{
    const std::lock_guard<std::mutex> lock(admitMutex);
    if (draining)
        return Admit::Draining;
    if (inflight >= opts.queueCapacity)
        return Admit::Full;
    ++inflight;
    return Admit::Ok;
}

void
Server::releaseAdmission()
{
    std::lock_guard<std::mutex> lock(admitMutex);
    COPERNICUS_PANIC_IF(inflight == 0, "serve: admission released twice");
    --inflight;
    if (inflight == 0)
        idleCv.notify_all();
}

void
Server::beginShutdown()
{
    {
        const std::lock_guard<std::mutex> lock(admitMutex);
        if (draining)
            return;
        draining = true;
    }
    drainingFlag.store(true, std::memory_order_release);
    drainCv.notify_all();
    idleCv.notify_all();
    wakeLoop();
    inform("serve: draining (in-flight requests will finish)");
}

void
Server::wakeLoop()
{
    if (wakeFd < 0)
        return;
    const std::uint64_t one = 1;
    // An EAGAIN here means the counter is already non-zero — the loop
    // is waking anyway, so the lost write is harmless.
    [[maybe_unused]] const ssize_t n =
        ::write(wakeFd, &one, sizeof(one));
}

bool
Server::onLoopThread() const
{
    return std::this_thread::get_id() == loopThreadId;
}

void
Server::respond(const std::shared_ptr<Conn> &conn, bool binary,
                std::uint64_t streamId, std::string_view payload)
{
    if (!conn->open.load(std::memory_order_relaxed))
        return;
    {
        const MutexLock lock(conn->txMutex);
        if (binary) {
            appendFrame(conn->txBuffer, FrameType::Response, streamId,
                        payload);
        } else {
            conn->txBuffer.append(payload.data(), payload.size());
            conn->txBuffer.push_back('\n');
        }
    }
    if (onLoopThread()) {
        flushConn(conn);
        return;
    }
    {
        const MutexLock lock(loopMutex);
        dirtyConns.push_back(conn);
    }
    wakeLoop();
}

void
Server::loopMain()
{
    loopThreadId = std::this_thread::get_id();
    std::map<int, std::shared_ptr<Conn>> connsByFd;
    bool listenArmed = true;
    epoll_event events[64];

    for (;;) {
        if (signalShutdown.load(std::memory_order_relaxed))
            beginShutdown();
        if (listenArmed &&
            drainingFlag.load(std::memory_order_acquire)) {
            ::epoll_ctl(epollFd, EPOLL_CTL_DEL, listenFd, nullptr);
            listenArmed = false;
        }
        if (loopExit.load(std::memory_order_acquire))
            break;

        const int ready = ::epoll_wait(epollFd, events, 64, 100);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        for (int i = 0; i < ready; ++i) {
            const int fd = events[i].data.fd;
            if (fd == listenFd) {
                if (listenArmed)
                    loopAccept(connsByFd);
                continue;
            }
            if (fd == wakeFd) {
                drainWakeups();
                continue;
            }
            const auto it = connsByFd.find(fd);
            if (it == connsByFd.end())
                continue;
            // Copy the shared_ptr: closeConn() erases the map entry.
            const std::shared_ptr<Conn> conn = it->second;
            const std::uint32_t what = events[i].events;
            if (what & EPOLLOUT)
                flushConn(conn);
            bool keep = conn->open.load(std::memory_order_relaxed);
            if (keep && (what & (EPOLLIN | EPOLLHUP | EPOLLERR)))
                keep = loopRead(conn);
            if (!keep || !conn->open.load(std::memory_order_relaxed))
                closeConn(connsByFd, conn);
        }

        // Flush the connections handlers marked dirty since the last
        // tick (their responses were appended off-thread).
        std::vector<std::shared_ptr<Conn>> dirty;
        {
            const MutexLock lock(loopMutex);
            dirty.swap(dirtyConns);
        }
        for (const std::shared_ptr<Conn> &conn : dirty) {
            if (!conn->open.load(std::memory_order_relaxed))
                continue;
            flushConn(conn);
            if (!conn->open.load(std::memory_order_relaxed))
                closeConn(connsByFd, conn);
        }
    }

    flushAllBeforeExit(connsByFd);
}

void
Server::loopAccept(std::map<int, std::shared_ptr<Conn>> &connsByFd)
{
    for (;;) {
        const int fd = ::accept4(listenFd, nullptr, nullptr,
                                 SOCK_NONBLOCK | SOCK_CLOEXEC);
        if (fd < 0) {
            if (errno == EINTR)
                continue;
            return; // EAGAIN, or a transient accept error; next tick
        }
        if (opts.tcpPort >= 0) {
            // Request/response frames are small relative to an MTU;
            // Nagle would add up to one delayed-ACK interval (~40 ms)
            // to every response on loopback TCP, dwarfing the actual
            // service time. Measured in BENCH_serve_load.json.
            const int one = 1;
            ::setsockopt(fd, IPPROTO_TCP, TCP_NODELAY, &one,
                         sizeof(one));
        }
        *connections += 1;
        auto conn = std::make_shared<Conn>(fd, opts.maxFrameBytes);
        epoll_event ev{};
        ev.events = EPOLLIN;
        ev.data.fd = fd;
        if (::epoll_ctl(epollFd, EPOLL_CTL_ADD, fd, &ev) != 0)
            continue; // conn drops here, dtor closes fd
        connsByFd.emplace(fd, std::move(conn));
    }
}

bool
Server::loopRead(const std::shared_ptr<Conn> &conn)
{
    char buf[65536];
    // Read at least once, so a peer that hung up reaches EOF even while
    // paused; stop after a chunk whose answers pushed the backlog past
    // the high-water mark (flushConn resumes reading once it drains).
    do {
        const ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
        if (n < 0) {
            if (errno == EINTR)
                continue;
            if (errno == EAGAIN || errno == EWOULDBLOCK)
                return true;
        }
        if (n <= 0) {
            // EOF or a hard error: the peer is gone. A binary
            // connection that ends inside a frame truncated its final
            // frame — worth a counter, it usually means a client
            // crashed mid-send.
            if (conn->protocol == Protocol::Binary &&
                conn->decoder.midFrame())
                *framesTruncated += 1;
            return false;
        }
        switch (conn->protocol) {
          case Protocol::Sniffing:
            conn->rxBuffer.append(buf, static_cast<std::size_t>(n));
            if (!consumeSniff(conn))
                return false;
            break;
          case Protocol::Ndjson:
            consumeNdjson(conn,
                          std::string_view(buf, static_cast<std::size_t>(n)));
            break;
          case Protocol::Binary:
            conn->decoder.feed(buf, static_cast<std::size_t>(n));
            if (!consumeBinary(conn))
                return false;
            break;
        }
    } while (!conn->readPaused);
    return true;
}

bool
Server::consumeSniff(const std::shared_ptr<Conn> &conn)
{
    // A connection opens in one of two ways: the 4-byte "CPB1" magic
    // (binary framing) or anything else (NDJSON). The magic contains
    // no newline, so the first byte that diverges from it — including
    // a newline — settles the dialect immediately; at most 3 bytes are
    // ever held back waiting for the decision.
    const std::string &rx = conn->rxBuffer;
    const std::size_t probe =
        std::min<std::size_t>(rx.size(), framingMagic.size());
    if (rx.compare(0, probe, framingMagic.data(), probe) != 0) {
        conn->protocol = Protocol::Ndjson;
        // consumeNdjson buffers into rxBuffer, so it reads the sniffed
        // bytes from a string of their own.
        std::string first;
        first.swap(conn->rxBuffer);
        consumeNdjson(conn, first);
        return true;
    }
    if (rx.size() < framingMagic.size())
        return true; // still a strict prefix of the magic; wait
    conn->protocol = Protocol::Binary;
    if (rx.size() > framingMagic.size())
        conn->decoder.feed(rx.data() + framingMagic.size(),
                           rx.size() - framingMagic.size());
    conn->rxBuffer.clear();
    conn->rxBuffer.shrink_to_fit();
    return consumeBinary(conn);
}

void
Server::consumeNdjson(const std::shared_ptr<Conn> &conn,
                      std::string_view in)
{
    // rxBuffer holds only the line still waiting for its newline, and
    // the cap is checked before a read is appended to it, so it never
    // grows past the cap. A line over the cap gets one bad_request as
    // soon as it passes the cap, counts as a bad line, and is dropped
    // through its newline; the connection stays open.
    std::string &rx = conn->rxBuffer;
    while (!in.empty()) {
        const std::size_t newline = in.find('\n');
        const std::string_view piece = in.substr(0, newline);
        if (!conn->discardingLine) {
            if (rx.size() + piece.size() > opts.maxFrameBytes) {
                *badLines += 1;
                *badLinesOther += 1;
                respond(conn, false, 0,
                        errorResponse(
                            0, "", serve_error::badRequest,
                            "request line exceeds the " +
                                std::to_string(opts.maxFrameBytes) +
                                " byte limit"));
                conn->discardingLine = true;
                std::string().swap(rx); // drop the line and its memory
            } else {
                rx.append(piece);
            }
        }
        if (newline == std::string_view::npos)
            return;
        in.remove_prefix(newline + 1);
        if (conn->discardingLine) {
            conn->discardingLine = false; // the over-long line ends here
            continue;
        }
        if (!rx.empty() && rx.back() == '\r')
            rx.pop_back();
        if (rx.find_first_not_of(" \t") != std::string::npos)
            handlePayload(conn, rx, /*binary=*/false, /*wireStreamId=*/0);
        rx.clear();
    }
}

bool
Server::consumeBinary(const std::shared_ptr<Conn> &conn)
{
    Frame frame;
    for (;;) {
        switch (conn->decoder.next(frame)) {
          case DecodeResult::NeedMore:
            return true;

          case DecodeResult::GotFrame:
            switch (frame.type) {
              case FrameType::Request:
                handlePayload(conn, frame.payload, /*binary=*/true,
                              frame.streamId);
                break;
              case FrameType::Cancel:
                handleCancel(conn, frame.streamId);
                break;
              case FrameType::Response:
                // Only servers send Response frames. Misuse, but the
                // stream boundaries are intact, so answer on the
                // stream and keep the connection.
                *framesProtocolError += 1;
                respond(conn, true, frame.streamId,
                        errorResponse(0, "", serve_error::badRequest,
                                      "unexpected response frame from "
                                      "client"));
                break;
            }
            break;

          case DecodeResult::Oversized:
            // The declared payload exceeds the cap; the decoder is
            // discarding it without buffering. The stream gets its
            // one response; the connection and its other streams
            // continue untouched.
            *framesOversized += 1;
            respond(conn, true, frame.streamId,
                    errorResponse(
                        0, "", serve_error::badRequest,
                        "frame payload of " +
                            std::to_string(conn->decoder.declaredLength()) +
                            " bytes exceeds the " +
                            std::to_string(opts.maxFrameBytes) +
                            " byte limit"));
            break;

          case DecodeResult::Fatal:
            *framesProtocolError += 1;
            inform("serve: closing desynchronized binary connection: " +
                   conn->decoder.error());
            return false;
        }
    }
}

void
Server::handleCancel(const std::shared_ptr<Conn> &conn,
                     std::uint64_t streamId)
{
    std::shared_ptr<std::atomic<bool>> flag;
    {
        const MutexLock lock(conn->streamsMutex);
        const auto it = conn->streams.find(streamId);
        if (it != conn->streams.end())
            flag = it->second;
    }
    // Unknown stream: the response already retired it, or the client
    // made the id up. Either way cancel is best-effort and idempotent.
    if (!flag)
        return;
    flag->store(true, std::memory_order_relaxed);
    *streamsCancelled += 1;
}

void
Server::closeConn(std::map<int, std::shared_ptr<Conn>> &connsByFd,
                  const std::shared_ptr<Conn> &conn)
{
    conn->open.store(false, std::memory_order_relaxed);
    ::epoll_ctl(epollFd, EPOLL_CTL_DEL, conn->fd, nullptr);
    {
        // A vanished client cancels everything it had in flight; the
        // handlers unwind at their next cancel poll instead of
        // sweeping for a peer that will never read the answer.
        const MutexLock lock(conn->streamsMutex);
        for (const auto &[id, flag] : conn->streams)
            flag->store(true, std::memory_order_relaxed);
        conn->streams.clear();
    }
    connsByFd.erase(conn->fd);
    // The fd itself closes when the last shared_ptr (possibly held by
    // an in-flight handler) releases the Conn.
}

void
Server::flushConn(const std::shared_ptr<Conn> &conn)
{
    if (!conn->open.load(std::memory_order_relaxed))
        return;
    std::size_t unsent = 0;
    {
        const MutexLock lock(conn->txMutex);
        while (conn->txOffset < conn->txBuffer.size()) {
            const ssize_t n =
                ::send(conn->fd, conn->txBuffer.data() + conn->txOffset,
                       conn->txBuffer.size() - conn->txOffset,
                       MSG_NOSIGNAL);
            if (n < 0) {
                if (errno == EINTR)
                    continue;
                if (errno == EAGAIN || errno == EWOULDBLOCK)
                    break;
                // The peer is gone; drop the buffer, the event loop
                // retires the connection on its next pass.
                conn->open.store(false, std::memory_order_relaxed);
                conn->txBuffer.clear();
                conn->txOffset = 0;
                return;
            }
            conn->txOffset += static_cast<std::size_t>(n);
        }
        if (conn->txOffset > 0) {
            conn->txBuffer.erase(0, conn->txOffset);
            conn->txOffset = 0;
        }
        unsent = conn->txBuffer.size();
    }
    updateInterest(conn, unsent);
}

void
Server::updateInterest(const std::shared_ptr<Conn> &conn,
                       std::size_t unsent)
{
    const bool want = unsent > 0;
    const bool paused = unsent > txHighWater ||
                        (conn->readPaused && unsent >= txLowWater);
    if ((want == conn->wantWrite && paused == conn->readPaused) ||
        !conn->open.load(std::memory_order_relaxed))
        return;
    epoll_event ev{};
    ev.events = (paused ? 0u : std::uint32_t(EPOLLIN)) |
                (want ? std::uint32_t(EPOLLOUT) : 0u);
    ev.data.fd = conn->fd;
    if (::epoll_ctl(epollFd, EPOLL_CTL_MOD, conn->fd, &ev) == 0) {
        conn->wantWrite = want;
        conn->readPaused = paused;
    }
}

void
Server::drainWakeups()
{
    std::uint64_t counter = 0;
    while (::read(wakeFd, &counter, sizeof(counter)) > 0) {
    }
}

void
Server::flushAllBeforeExit(
    std::map<int, std::shared_ptr<Conn>> &connsByFd)
{
    // All handlers have finished (waitDrained holds loopExit until
    // inflight hit zero), so every response is in some tx buffer.
    // Deliver them with a bounded retry window for peers applying
    // backpressure, then retire everything.
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(2);
    for (;;) {
        drainWakeups();
        {
            const MutexLock lock(loopMutex);
            dirtyConns.clear();
        }
        bool pending = false;
        for (const auto &[fd, conn] : connsByFd) {
            if (!conn->open.load(std::memory_order_relaxed))
                continue;
            flushConn(conn);
            if (!conn->open.load(std::memory_order_relaxed))
                continue;
            const MutexLock lock(conn->txMutex);
            if (conn->txOffset < conn->txBuffer.size())
                pending = true;
        }
        if (!pending || std::chrono::steady_clock::now() >= deadline)
            break;
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
    }
    for (const auto &[fd, conn] : connsByFd) {
        ::shutdown(conn->fd, SHUT_RDWR);
        conn->open.store(false, std::memory_order_relaxed);
        const MutexLock lock(conn->streamsMutex);
        for (const auto &[id, flag] : conn->streams)
            flag->store(true, std::memory_order_relaxed);
        conn->streams.clear();
    }
    connsByFd.clear();
}

void
Server::handlePayload(const std::shared_ptr<Conn> &conn,
                      const std::string &payload, bool binary,
                      std::uint64_t wireStreamId)
{
    const std::uint64_t receiptUs = nowUs();
    ServeRequest request;
    std::string parseError;
    RequestParseError why;
    if (!parseRequest(payload, request, parseError, why)) {
        *badLines += 1;
        switch (why) {
          case RequestParseError::MalformedJson:
            *badLinesMalformed += 1;
            break;
          case RequestParseError::UnknownOp:
            *badLinesUnknownOp += 1;
            break;
          default:
            *badLinesOther += 1;
            break;
        }
        if (opts.observability) {
            FlightRecorder::global().record(
                "{\"type\": \"bad_line\", \"reason\": " +
                jsonStr(requestParseErrorName(why)) +
                ", \"receipt_us\": " + std::to_string(receiptUs) + "}");
        }
        respond(conn, binary, wireStreamId,
                errorResponse(0, "", serve_error::badRequest,
                              parseError));
        return;
    }

    if (binary && wireStreamId == 0) {
        // Stream id 0 is reserved (it is the NDJSON synthetic space's
        // "no stream" value); a request on it has no usable reply
        // address.
        *framesProtocolError += 1;
        respond(conn, binary, 0,
                errorResponse(request.id,
                              endpointName(request.endpoint),
                              serve_error::badRequest,
                              "stream id 0 is reserved"));
        return;
    }

    // Assign the request's trace identity up front: the rejection wide
    // events and the eventual serve.request span share one trace, and
    // a client-supplied trace id is adopted so the caller's client
    // span becomes the parent of everything the server records.
    std::uint64_t requestSpanId = 0;
    if (opts.observability && SpanCollector::global().enabled()) {
        if (!request.trace.valid())
            request.trace.traceId = newTraceId();
        requestSpanId = newSpanId();
    }

    switch (tryAdmit()) {
      case Admit::Full:
        *statsFor(request.endpoint).rejected += 1;
        recordWideEvent(request, serve_error::queueFull, binary,
                        receiptUs, receiptUs, nowUs(), 0, 0,
                        RequestObs{});
        respond(conn, binary, wireStreamId,
                errorResponse(request.id,
                              endpointName(request.endpoint),
                              serve_error::queueFull,
                              "admission queue is full (capacity " +
                                  std::to_string(opts.queueCapacity) +
                                  "); retry later",
                              request.trace.traceId));
        return;
      case Admit::Draining:
        *statsFor(request.endpoint).rejected += 1;
        recordWideEvent(request, serve_error::shuttingDown, binary,
                        receiptUs, receiptUs, nowUs(), 0, 0,
                        RequestObs{});
        respond(conn, binary, wireStreamId,
                errorResponse(request.id,
                              endpointName(request.endpoint),
                              serve_error::shuttingDown,
                              "server is draining",
                              request.trace.traceId));
        return;
      case Admit::Ok:
        break;
    }

    // Register the stream before the handler can run: its cancel flag
    // is the rendezvous between a Cancel frame (or a disconnect) and
    // the handler's cancelCheck polls. NDJSON requests get a synthetic
    // id from a space the wire never uses, purely for disconnect
    // cancellation.
    StreamHandle stream;
    stream.binary = binary;
    stream.cancelFlag = std::make_shared<std::atomic<bool>>(false);
    bool duplicate = false;
    if (binary) {
        stream.streamId = wireStreamId;
        const MutexLock lock(conn->streamsMutex);
        duplicate = !conn->streams
                         .emplace(wireStreamId, stream.cancelFlag)
                         .second;
    } else {
        stream.streamId = conn->nextSyntheticStream++;
        const MutexLock lock(conn->streamsMutex);
        conn->streams.emplace(stream.streamId, stream.cancelFlag);
    }
    if (duplicate) {
        // The id is still owned by the earlier request; this one was
        // admitted but never registered, so hand the slot back.
        releaseAdmission();
        *statsFor(request.endpoint).rejected += 1;
        *framesProtocolError += 1;
        respond(conn, binary, wireStreamId,
                errorResponse(request.id,
                              endpointName(request.endpoint),
                              serve_error::badRequest,
                              "stream id " +
                                  std::to_string(wireStreamId) +
                                  " is already in flight",
                              request.trace.traceId));
        return;
    }

    *statsFor(request.endpoint).accepted += 1;
    // The shared_ptr keeps the Conn (and its fd) alive until the
    // handler is done with it even if the client disconnects
    // mid-request; the loop never blocks on this work.
    pool->submit([this, conn, request = std::move(request), stream,
                  receiptUs, requestSpanId]() mutable {
        runRequest(conn, std::move(request), std::move(stream),
                   receiptUs, requestSpanId);
    });
}

void
Server::runRequest(std::shared_ptr<Conn> conn, ServeRequest request,
                   StreamHandle stream, std::uint64_t receiptUs,
                   std::uint64_t requestSpanId)
{
    EndpointStats &stats = statsFor(request.endpoint);
    const std::uint64_t startUs = nowUs();
    const CompressTotals compressBefore = compressTotals();

    const bool observe = requestSpanId != 0;
    if (observe) {
        // The queue span covers receipt -> handler start; it is a
        // child of the serve.request span recorded below.
        SpanCollector::global().record({request.trace.traceId,
                                        newSpanId(), requestSpanId,
                                        "serve.queue", "serve",
                                        receiptUs, startUs});
    }

    std::uint64_t token = 0;
    {
        const MutexLock lock(inflightMutex);
        token = nextReqToken++;
        inflightReqs.emplace(
            token, InflightEntry{request.endpoint, request.id, startUs});
    }

    double timeoutMs = request.timeoutMs > 0 ? request.timeoutMs
                                             : opts.defaultTimeoutMs;
    std::function<bool()> deadlineHit;
    if (timeoutMs > 0) {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::microseconds(
                static_cast<std::int64_t>(timeoutMs * 1000.0));
        deadlineHit = [deadline] {
            return std::chrono::steady_clock::now() >= deadline;
        };
    }
    // One predicate feeds every cancelCheck poll: explicit per-stream
    // cancel (or disconnect) and the deadline look identical to the
    // handler; which one fired is resolved after the unwind.
    const std::shared_ptr<std::atomic<bool>> cancelFlag =
        stream.cancelFlag;
    std::function<bool()> abortRequested;
    if (deadlineHit || cancelFlag) {
        abortRequested = [deadlineHit, cancelFlag] {
            if (cancelFlag &&
                cancelFlag->load(std::memory_order_relaxed))
                return true;
            return deadlineHit && deadlineHit();
        };
    }

    std::string response;
    std::string outcome = "ok";
    RequestObs obs;
    {
        // Everything the handler does — the serve.handler span, the
        // study phases, any pool fan-out — parents under the
        // serve.request span through the thread-local context.
        const TraceContextScope scope(
            observe ? TraceContext{request.trace.traceId, requestSpanId}
                    : TraceContext{});
        const ScopedSpan handler("serve.handler", "serve");
        try {
            response = okResponse(request,
                                  dispatch(request, abortRequested, obs));
            *stats.completed += 1;
        } catch (const CancelledError &e) {
            const bool wasCancelled =
                cancelFlag &&
                cancelFlag->load(std::memory_order_relaxed);
            outcome = std::string(wasCancelled
                                      ? serve_error::cancelled
                                      : serve_error::deadlineExceeded);
            response = errorResponse(
                request.id, endpointName(request.endpoint), outcome,
                wasCancelled ? "stream cancelled by the client"
                             : e.what(),
                request.trace.traceId);
            *stats.errors += 1;
        } catch (const FatalError &e) {
            outcome = std::string(serve_error::badRequest);
            response = errorResponse(
                request.id, endpointName(request.endpoint),
                serve_error::badRequest, e.what(),
                request.trace.traceId);
            *stats.errors += 1;
        } catch (const std::exception &e) {
            outcome = std::string(serve_error::internal);
            response = errorResponse(
                request.id, endpointName(request.endpoint),
                serve_error::internal, e.what(),
                request.trace.traceId);
            *stats.errors += 1;
        }
    }

    // Second-stage compression time attributed to this request. The
    // totals are process-wide, so the delta is approximate when
    // requests overlap.
    const std::uint64_t compressUs =
        (compressTotals().nanos - compressBefore.nanos) / 1000;

    const std::uint64_t endUs = nowUs();
    stats.latencyUs->sample(static_cast<double>(endUs - startUs));
    if (!opts.tracePath.empty()) {
        const MutexLock lock(spansMutex);
        requestSpans.push(
            {request.endpoint, request.id, startUs, endUs, outcome});
    }
    {
        const MutexLock lock(inflightMutex);
        inflightReqs.erase(token);
    }

    if (observe) {
        // The root (or client-parented) serve.request span spans
        // receipt to completion, covering queue wait and handler both.
        SpanCollector::global().record(
            {request.trace.traceId, requestSpanId,
             request.trace.spanId, "serve.request", "serve", receiptUs,
             endUs});
    }
    recordWideEvent(request, outcome, stream.binary, receiptUs,
                    startUs, endUs, timeoutMs, compressUs, obs);

    // Retire the stream id before the response leaves, so a client
    // that reuses an id immediately after reading its response can
    // never race the erase.
    {
        const MutexLock lock(conn->streamsMutex);
        conn->streams.erase(stream.streamId);
    }
    // A shutdown stops admission before its response leaves, so a
    // client that reads {"draining": true} and sends again is refused.
    // The drain still waits for this request's admission, released
    // only once the response is in the tx buffer, so the response is
    // delivered before the connections are torn down.
    if (request.endpoint == Endpoint::Shutdown)
        beginShutdown();
    respond(conn, stream.binary, stream.streamId, response);
    releaseAdmission();
}

void
Server::recordWideEvent(const ServeRequest &request,
                        std::string_view outcome, bool binary,
                        std::uint64_t receiptUs, std::uint64_t startUs,
                        std::uint64_t endUs, double timeoutMs,
                        std::uint64_t compressUs,
                        const RequestObs &obs)
{
    if (!opts.observability)
        return;
    WideEventInputs event;
    event.endpoint = endpointName(request.endpoint);
    event.id = request.id;
    event.traceIdHex = traceIdToHex(request.trace.traceId);
    event.outcome = outcome;
    event.receiptUs = receiptUs;
    event.queueWaitUs = startUs - receiptUs;
    event.latencyUs = endUs - startUs;
    event.deadlineBudgetMs = timeoutMs;
    event.deadlineUsedMs =
        static_cast<double>(endUs - startUs) / 1000.0;
    event.compressUs = compressUs;
    event.formatsSwept = obs.formatsSwept;
    event.memoHit = obs.memoHit;
    event.protocol = binary ? "binary" : "ndjson";
    FlightRecorder::global().record(buildWideEventJson(event));
}

std::string
Server::dispatch(const ServeRequest &request,
                 const std::function<bool()> &abortRequested,
                 RequestObs &obs)
{
    const auto checkAbort = [&abortRequested] {
        if (abortRequested && abortRequested())
            throw CancelledError("request deadline exceeded");
    };
    const JsonValue &params = request.params;

    switch (request.endpoint) {
      case Endpoint::Ping:
        return "{\"pong\": true}";

      case Endpoint::Stats:
        return statsJson();

      case Endpoint::Shutdown:
        return "{\"draining\": true}";

      case Endpoint::Sleep: {
        // Test/load-gen endpoint: occupy an admission slot for a
        // controlled time, honoring the deadline like a real sweep.
        double ms = params.numberOr("ms", 100);
        COPERNICUS_FATAL_IF(ms < 0 || ms > 60000,
                            "sleep: ms must be in [0, 60000]");
        double slept = 0;
        while (slept < ms) {
            checkAbort();
            const double slice = std::min(5.0, ms - slept);
            std::this_thread::sleep_for(std::chrono::microseconds(
                static_cast<std::int64_t>(slice * 1000.0)));
            slept += slice;
        }
        return "{\"slept_ms\": " + jsonNum(ms) + "}";
      }

      case Endpoint::Advise: {
        const JsonValue *spec = params.find("matrix");
        COPERNICUS_FATAL_IF(spec == nullptr,
                            "advise: params.matrix is required");
        const TripletMatrix matrix =
            matrixFromSpec(*spec, opts.maxMatrixDim);
        checkAbort();
        const AdvisorGoal goal =
            goalFromName(params.stringOr("goal", "balanced"));
        const bool tailored = params.boolOr("tailored_engine", false);

        const MatrixStats mstats = computeStats(matrix);
        const Recommendation rec = advise(mstats, goal, tailored);
        std::ostringstream out;
        out << "{\"format\": " << jsonStr(formatName(rec.format))
            << ", \"partition_size\": " << rec.partitionSize
            << ", \"requires_tailored_engine\": "
            << (rec.requiresTailoredEngine ? "true" : "false")
            << ", \"goal\": " << jsonStr(goalName(goal))
            << ", \"alternatives\": [";
        for (std::size_t i = 0; i < rec.alternatives.size(); ++i) {
            if (i > 0)
                out << ", ";
            out << jsonStr(formatName(rec.alternatives[i]));
        }
        out << "], \"rationale\": " << jsonStr(rec.rationale)
            << ", \"matrix\": {\"rows\": " << mstats.rows
            << ", \"cols\": " << mstats.cols
            << ", \"nnz\": " << mstats.nnz
            << ", \"density\": " << jsonNum(mstats.density)
            << ", \"bandwidth\": " << mstats.bandwidth << "}}";
        return out.str();
      }

      case Endpoint::RunStudy: {
        const JsonValue *spec = params.find("matrix");
        COPERNICUS_FATAL_IF(spec == nullptr,
                            "run_study: params.matrix is required");
        TripletMatrix matrix =
            matrixFromSpec(*spec, opts.maxMatrixDim);
        StudyConfig cfg;
        cfg.partitionSizes = partitionSizesFromParam(
            params.find("partition_sizes"), cfg.partitionSizes);
        cfg.formats =
            formatsFromParam(params.find("formats"), cfg.formats);
        obs.formatsSwept = cfg.formats.size();
        // One lane: the serve pool is the concurrency layer; a nested
        // per-request pool would oversubscribe and break the admission
        // queue's meaning as "concurrent work units".
        cfg.jobs = 1;
        cfg.cancelCheck = abortRequested;
        // Optional sweep journal: completed cells of a previous
        // (killed) run of the same matrix/config are reused, not
        // re-simulated. The identity must bind before Study copies
        // the config, and to the exact workload set Study will see.
        std::size_t resumedCells = 0;
        const std::string journalPath =
            params.stringOr("journal", "");
        if (!journalPath.empty()) {
            JournalIdentity identity;
            identity.matrixHash =
                workloadSetHash({{"request", contentHashOf(matrix)}});
            if (spec->stringOr("kind", "") == "cbm")
                identity.matrixEpoch =
                    CbmReader(spec->stringOr("path", "")).epoch();
            identity.configHash = sweepConfigHash(cfg);
            cfg.journal =
                std::make_shared<SweepJournal>(journalPath, identity);
            resumedCells = cfg.journal->resumedCells();
        }
        Study study(cfg);
        study.addWorkload("request", std::move(matrix));
        const StudyResult result = study.run();

        std::ostringstream out;
        out << "{\"rows\": " << result.rows.size()
            << ", \"resumed_cells\": " << resumedCells
            << ", \"by_format\": [";
        const std::vector<FormatMetrics> agg =
            result.aggregateByFormat();
        for (std::size_t i = 0; i < agg.size(); ++i) {
            if (i > 0)
                out << ", ";
            out << "{\"format\": " << jsonStr(formatName(agg[i].format))
                << ", \"mean_sigma\": " << jsonNum(agg[i].meanSigma)
                << ", \"throughput_bps\": "
                << jsonNum(agg[i].throughput)
                << ", \"balance_ratio\": "
                << jsonNum(agg[i].balanceRatio)
                << ", \"bw_util\": "
                << jsonNum(agg[i].bandwidthUtilization)
                << ", \"total_seconds\": "
                << jsonNum(agg[i].totalSeconds)
                << ", \"dyn_power_w\": "
                << jsonNum(agg[i].dynamicPowerW) << '}';
        }
        out << ']';
        if (params.boolOr("include_rows", false)) {
            out << ", \"row_details\": [";
            for (std::size_t i = 0; i < result.rows.size(); ++i) {
                const StudyRow &row = result.rows[i];
                if (i > 0)
                    out << ", ";
                out << "{\"format\": "
                    << jsonStr(formatName(row.format))
                    << ", \"p\": " << row.partitionSize
                    << ", \"total_cycles\": " << row.totalCycles
                    << ", \"mean_sigma\": " << jsonNum(row.meanSigma)
                    << ", \"bw_util\": "
                    << jsonNum(row.bandwidthUtilization) << '}';
            }
            out << ']';
        }
        out << '}';
        return out.str();
      }

      case Endpoint::PlanFormats: {
        const JsonValue *spec = params.find("matrix");
        COPERNICUS_FATAL_IF(spec == nullptr,
                            "plan_formats: params.matrix is required");
        const TripletMatrix matrix =
            matrixFromSpec(*spec, opts.maxMatrixDim);
        const double p = params.numberOr("partition_size", 16);
        COPERNICUS_FATAL_IF(
            p < 1 || p > 4096,
            "plan_formats: partition_size must be in [1, 4096]");
        const std::vector<FormatKind> candidates =
            formatsFromParam(params.find("formats"), paperFormats());
        obs.formatsSwept = candidates.size();
        const std::string objectiveName =
            params.stringOr("objective", "bottleneck");
        SchedulerObjective objective = SchedulerObjective::Bottleneck;
        if (objectiveName == "compute") {
            objective = SchedulerObjective::Compute;
        } else if (objectiveName == "bytes") {
            objective = SchedulerObjective::Bytes;
        } else {
            COPERNICUS_FATAL_IF(objectiveName != "bottleneck",
                                "plan_formats: unknown objective '" +
                                    objectiveName +
                                    "' (expected bottleneck|compute|bytes)");
        }

        // The plan depends only on (matrix content, partition size,
        // candidate set, objective), all validated above, so the memo
        // key binds exactly those. Params are validated *before* the
        // lookup so a hit and a miss reject the same malformed
        // requests.
        MemoKey key;
        std::string cached;
        if (memo->enabled()) {
            key.contentHash = contentHashOf(matrix);
            std::uint64_t h = fnv1a("plan_formats", 12);
            h = fnv1aValue(static_cast<std::uint64_t>(
                               static_cast<Index>(p)),
                           h);
            for (FormatKind kind : candidates) {
                const std::string_view name = formatName(kind);
                h = fnv1a(name.data(), name.size(), h);
                h = fnv1a("|", 1, h);
            }
            h = fnv1a(objectiveName.data(), objectiveName.size(), h);
            key.configHash = h;
            if (memo->lookup(key, cached)) {
                obs.memoHit = true;
                const ScopedSpan span("serve.memo", "serve");
                return cached;
            }
        }

        checkAbort();
        const Partitioning parts =
            partition(matrix, static_cast<Index>(p));
        checkAbort();
        const FormatPlan plan =
            planFormats(parts, candidates, objective, HlsConfig(),
                        defaultRegistry(), 1);
        std::ostringstream out;
        out << "{\"tiles\": " << plan.perTile.size()
            << ", \"histogram\": {";
        bool first = true;
        for (const auto &[kind, tiles] : plan.histogram) {
            if (!first)
                out << ", ";
            first = false;
            out << jsonStr(formatName(kind)) << ": " << tiles;
        }
        out << "}}";
        const std::string payload = out.str();
        if (memo->enabled())
            memo->insert(key, payload);
        return payload;
      }

      case Endpoint::ValidateTile: {
        const JsonValue *spec = params.find("matrix");
        COPERNICUS_FATAL_IF(spec == nullptr,
                            "validate_tile: params.matrix is required");
        const TripletMatrix matrix =
            matrixFromSpec(*spec, opts.maxMatrixDim);
        const double p = params.numberOr("partition_size", 16);
        COPERNICUS_FATAL_IF(
            p < 1 || p > 4096,
            "validate_tile: partition_size must be in [1, 4096]");
        const std::vector<FormatKind> kinds =
            formatsFromParam(params.find("formats"), paperFormats());
        obs.formatsSwept = kinds.size();
        const Partitioning parts =
            partition(matrix, static_cast<Index>(p));
        std::vector<std::string> violations;
        std::size_t checked = 0;
        for (const Tile &tile : parts.tiles) {
            checkAbort();
            for (FormatKind kind : kinds) {
                const auto encoded =
                    defaultRegistry().codec(kind).encode(tile);
                const GrammarReport report =
                    validateEncodedTile(*encoded);
                ++checked;
                for (const GrammarViolation &v : report.violations)
                    violations.push_back(v.toString());
            }
        }
        std::ostringstream out;
        out << "{\"tiles\": " << parts.tiles.size()
            << ", \"formats\": " << kinds.size()
            << ", \"checked\": " << checked << ", \"ok\": "
            << (violations.empty() ? "true" : "false")
            << ", \"violations\": [";
        for (std::size_t i = 0; i < violations.size(); ++i) {
            if (i > 0)
                out << ", ";
            out << jsonStr(violations[i]);
        }
        out << "]}";
        return out.str();
      }

      case Endpoint::Metrics: {
        // The exposition text rides inside the JSON envelope; a
        // scraper sidecar (or the CLI's --metrics) unwraps "body".
        return "{\"content_type\": "
               "\"text/plain; version=0.0.4; charset=utf-8\", "
               "\"body\": " +
               jsonStr(metricsText()) + "}";
      }

      case Endpoint::DumpFlightRec: {
        const std::string path = params.stringOr("path", "");
        const FlightRecorder &recorder = FlightRecorder::global();
        if (!path.empty()) {
            recorder.dumpToFile(path);
            std::ostringstream out;
            out << "{\"path\": " << jsonStr(path)
                << ", \"wide_events\": "
                << recorder.snapshot().size() << ", \"spans\": "
                << SpanCollector::global().snapshot().size() << '}';
            return out.str();
        }
        // No path: the dump document itself is the result.
        std::ostringstream out;
        recorder.dump(out);
        return out.str();
      }

      case Endpoint::StoreInfo: {
        const std::string path = params.stringOr("path", "");
        COPERNICUS_FATAL_IF(path.empty(),
                            "store_info: params.path is required");
        const bool deep = params.boolOr("deep", false);
        const std::vector<CbmIssue> issues =
            inspectCbmFile(path, deep);
        std::ostringstream out;
        if (issues.empty()) {
            const CbmReader reader(path);
            out << "{\"valid\": true, \"deep\": "
                << (deep ? "true" : "false")
                << ", \"rows\": " << reader.rows()
                << ", \"cols\": " << reader.cols()
                << ", \"nnz\": " << reader.nnz()
                << ", \"epoch\": " << reader.epoch()
                << ", \"content_hash\": " << reader.contentHash()
                << ", \"chunk_count\": " << reader.chunkCount()
                << ", \"chunk_target_nnz\": "
                << reader.chunkTargetNnz() << ", \"issues\": []}";
            return out.str();
        }
        // A broken container is a valid answer to "inspect this
        // file", not a request error: report what the inspector saw.
        out << "{\"valid\": false, \"deep\": "
            << (deep ? "true" : "false") << ", \"issues\": [";
        for (std::size_t i = 0; i < issues.size(); ++i) {
            if (i > 0)
                out << ", ";
            out << "{\"kind\": "
                << jsonStr(cbmIssueKindName(issues[i].kind))
                << ", \"message\": " << jsonStr(issues[i].message)
                << '}';
        }
        out << "]}";
        return out.str();
      }
    }
    panic("serve: unhandled endpoint in dispatch");
}

std::string
Server::statsJson() const
{
    std::ostringstream out;
    dumpGroupsJson(out, {&grp, &poolStats.group()});
    std::string json = out.str();
    // dumpGroupsJson ends its document with '\n'; embedded in a
    // response payload that newline would split an NDJSON line, so
    // trim it.
    while (!json.empty() &&
           (json.back() == '\n' || json.back() == '\r'))
        json.pop_back();

    // Splice live load state into the document: --top reads queue
    // depth, per-request ages and the memo occupancy from here, so
    // the stats endpoint stays the one poll target.
    COPERNICUS_PANIC_IF(json.empty() || json.back() != '}',
                        "serve: stats dump is not a JSON object");
    json.pop_back();
    std::size_t depth;
    {
        const std::lock_guard<std::mutex> lock(admitMutex);
        depth = inflight;
    }
    json += ", \"queue_depth\": " + std::to_string(depth) +
            ", \"inflight\": [";
    const std::uint64_t now = nowUs();
    {
        const MutexLock lock(inflightMutex);
        bool first = true;
        for (const auto &[token, entry] : inflightReqs) {
            if (!first)
                json += ", ";
            first = false;
            json += "{\"endpoint\": " +
                    jsonStr(endpointName(entry.endpoint)) +
                    ", \"id\": " + std::to_string(entry.id) +
                    ", \"age_us\": " +
                    std::to_string(now > entry.startUs
                                       ? now - entry.startUs
                                       : 0) +
                    "}";
        }
    }
    json += "]";
    const ResultMemoStats memoStats = memo->stats();
    json += ", \"memo\": {\"hits\": " +
            std::to_string(memoStats.hits) +
            ", \"misses\": " + std::to_string(memoStats.misses) +
            ", \"evictions\": " + std::to_string(memoStats.evictions) +
            ", \"entries\": " + std::to_string(memoStats.entries) +
            ", \"bytes\": " + std::to_string(memoStats.bytes) + "}}";
    return json;
}

std::string
Server::metricsText() const
{
    PrometheusWriter writer;
    using Series =
        std::vector<std::pair<std::vector<PrometheusLabel>, double>>;

    // Per-endpoint counters, one series per endpoint.
    const auto perEndpoint = [this](auto member) {
        Series series;
        for (std::size_t i = 0; i < allEndpoints().size(); ++i) {
            series.push_back(
                {{{"endpoint",
                   std::string(endpointName(allEndpoints()[i]))}},
                 (endpointStats[i].*member)->value()});
        }
        return series;
    };
    writer.counter("copernicus_serve_requests_accepted_total",
                   "Requests admitted, by endpoint.",
                   perEndpoint(&EndpointStats::accepted));
    writer.counter("copernicus_serve_requests_rejected_total",
                   "Requests shed (queue_full / shutting_down).",
                   perEndpoint(&EndpointStats::rejected));
    writer.counter("copernicus_serve_requests_completed_total",
                   "Requests answered ok.",
                   perEndpoint(&EndpointStats::completed));
    writer.counter("copernicus_serve_requests_errored_total",
                   "Admitted requests answered with an error.",
                   perEndpoint(&EndpointStats::errors));

    writer.counter(
        "copernicus_serve_bad_lines_total",
        "Request lines that failed to parse, by reason.",
        {{{{"reason", "malformed_json"}}, badLinesMalformed->value()},
         {{{"reason", "unknown_op"}}, badLinesUnknownOp->value()},
         {{{"reason", "other"}}, badLinesOther->value()}});
    writer.counter("copernicus_serve_connections_total",
                   "Client connections accepted.",
                   {{{}, connections->value()}});
    writer.counter(
        "copernicus_serve_frame_errors_total",
        "Binary-framing protocol errors, by kind.",
        {{{{"reason", "oversized"}}, framesOversized->value()},
         {{{"reason", "protocol"}}, framesProtocolError->value()},
         {{{"reason", "truncated"}}, framesTruncated->value()}});
    writer.counter(
        "copernicus_serve_streams_cancelled_total",
        "Streams cancelled by an explicit cancel frame.",
        {{{}, streamsCancelled->value()}});

    std::size_t depth;
    {
        const std::lock_guard<std::mutex> lock(admitMutex);
        depth = inflight;
    }
    writer.gauge("copernicus_serve_queue_depth",
                 "Requests currently admitted (in flight).",
                 {{{}, static_cast<double>(depth)}});

    const ResultMemoStats memoStats = memo->stats();
    writer.counter(
        "copernicus_serve_memo_hits_total",
        "plan_formats requests served from the result memo.",
        {{{}, static_cast<double>(memoStats.hits)}});
    writer.counter("copernicus_serve_memo_misses_total",
                   "Result-memo lookups that missed.",
                   {{{}, static_cast<double>(memoStats.misses)}});
    writer.counter(
        "copernicus_serve_memo_evictions_total",
        "Result-memo entries evicted by the byte budget.",
        {{{}, static_cast<double>(memoStats.evictions)}});
    writer.gauge("copernicus_serve_memo_entries",
                 "Entries resident in the result memo.",
                 {{{}, static_cast<double>(memoStats.entries)}});
    writer.gauge("copernicus_serve_memo_bytes",
                 "Estimated bytes resident in the result memo.",
                 {{{}, static_cast<double>(memoStats.bytes)}});

    // Latency histograms from snapshots: the one histogram copy per
    // endpoint is the only lock a scrape shares with request threads.
    std::vector<std::pair<std::vector<PrometheusLabel>,
                          DistributionStat::Snapshot>>
        latencies;
    for (std::size_t i = 0; i < allEndpoints().size(); ++i) {
        latencies.push_back(
            {{{"endpoint",
               std::string(endpointName(allEndpoints()[i]))}},
             endpointStats[i].latencyUs->snapshot()});
    }
    writer.histogram("copernicus_serve_request_duration_seconds",
                     "Admitted-request latency.", latencies, 1e-6);

    const ThreadPool::Counters poolCounters =
        ThreadPool::globalCounters();
    writer.counter("copernicus_thread_pool_tasks_total",
                   "Pool tasks executed on any lane.",
                   {{{}, static_cast<double>(poolCounters.tasksRun)}});

    const FlightRecorder &recorder = FlightRecorder::global();
    writer.counter(
        "copernicus_flightrec_wide_events_total",
        "Wide events recorded by the flight recorder.",
        {{{}, static_cast<double>(recorder.recorded())}});
    writer.counter("copernicus_flightrec_wide_events_dropped_total",
                   "Wide events overwritten by ring wrap-around.",
                   {{{}, static_cast<double>(recorder.dropped())}});
    const SpanCollector &spanCollector = SpanCollector::global();
    writer.counter(
        "copernicus_spans_recorded_total",
        "Spans recorded by the span collector.",
        {{{}, static_cast<double>(spanCollector.recorded())}});
    writer.counter(
        "copernicus_spans_dropped_total",
        "Spans overwritten by ring wrap-around.",
        {{{}, static_cast<double>(spanCollector.dropped())}});

    return writer.text();
}

std::vector<RequestSpan>
Server::spans() const
{
    const MutexLock lock(spansMutex);
    return requestSpans.snapshot();
}

void
Server::waitDrained()
{
    COPERNICUS_PANIC_IF(!started, "serve: waitDrained() before start()");

    // 1. Park until someone (signal, shutdown endpoint, or
    //    beginShutdown()) starts the drain. The event loop stops
    //    accepting on its next tick but keeps reading and writing —
    //    in-flight responses still need the wire.
    {
        std::unique_lock<std::mutex> lock(admitMutex);
        drainCv.wait(lock, [this] { return draining; });
    }

    // 2. Wait for the in-flight requests to finish. Admission is
    //    closed (draining), so inflight can only fall; each completion
    //    appends its response to a tx buffer before releasing.
    {
        std::unique_lock<std::mutex> lock(admitMutex);
        idleCv.wait(lock, [this] { return inflight == 0; });
    }

    // 3. Stop the event loop. Its exit path flushes every remaining
    //    tx buffer to the wire before retiring the connections, so
    //    the responses appended in step 2 are delivered.
    loopExit.store(true, std::memory_order_release);
    wakeLoop();
    if (loopThread.joinable())
        loopThread.join();

    // 4. Drain the pool (joins its workers) before flushing artifacts
    //    so no handler can race the single-threaded writers below.
    pool.reset();

    if (!opts.statsJsonPath.empty()) {
        std::ofstream out(opts.statsJsonPath);
        COPERNICUS_FATAL_IF(!out, "serve: cannot open stats path '" +
                                      opts.statsJsonPath + "'");
        out << statsJson() << '\n';
        inform("serve: stats written to " + opts.statsJsonPath);
    }
    if (!opts.tracePath.empty()) {
        TraceWriter writer;
        writer.beginScope("serve");
        for (const RequestSpan &span : spans()) {
            writer.durationEvent(endpointName(span.endpoint),
                                 "r" + std::to_string(span.id) + " " +
                                     span.outcome,
                                 span.startUs, span.endUs);
        }
        if (opts.observability) {
            // The span tree rides in the same Chrome trace: one scope,
            // tracks by subsystem, and the causal edges preserved in
            // each event's args (the timeline view flattens them).
            writer.beginScope("spans");
            for (const SpanRecord &span :
                 SpanCollector::global().snapshot()) {
                writer.durationEventArgs(
                    span.track, span.name, span.startUs, span.endUs,
                    "{\"trace_id\": " + jsonStr(traceIdToHex(
                                            span.traceId)) +
                        ", \"span_id\": " +
                        jsonStr(traceIdToHex(span.spanId)) +
                        ", \"parent_span_id\": " +
                        jsonStr(traceIdToHex(span.parentSpanId)) + "}");
            }
        }
        writer.writeFile(opts.tracePath);
        inform("serve: request trace written to " + opts.tracePath);
    }
    if (!opts.flightRecPath.empty()) {
        FlightRecorder::global().dumpToFile(opts.flightRecPath);
        inform("serve: flight recorder dumped to " + opts.flightRecPath);
    }
    if (observingSpans) {
        SpanCollector::global().setEnabled(false);
        observingSpans = false;
    }

    if (listenFd >= 0) {
        ::close(listenFd);
        listenFd = -1;
    }
    if (epollFd >= 0) {
        ::close(epollFd);
        epollFd = -1;
    }
    if (wakeFd >= 0) {
        ::close(wakeFd);
        wakeFd = -1;
    }
    if (opts.tcpPort < 0 && !opts.socketPath.empty())
        ::unlink(opts.socketPath.c_str());
    started = false;
    inform("serve: drain complete");
}

} // namespace copernicus
