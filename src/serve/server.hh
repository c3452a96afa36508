/**
 * @file
 * The characterization service daemon.
 *
 * A Server owns one listening socket (Unix-domain by default, loopback
 * TCP optionally), one epoll event loop driving every connection, and
 * a ThreadPool that executes request handlers. Its load-shedding
 * contract is the point of the subsystem:
 *
 *  - Admission is bounded: at most queueCapacity requests are in
 *    flight; request queueCapacity+1 receives an immediate
 *    {"error": "queue_full"} response instead of queueing invisibly.
 *    Overload degrades to explicit rejections, never to silent hangs.
 *  - Every admitted request runs under a deadline (its timeout_ms, or
 *    the server default) and, on a multiplexed connection, under its
 *    stream's cancel flag. Long handlers poll both at partition
 *    boundaries via StudyConfig::cancelCheck and unwind with
 *    CancelledError, which maps to {"error": "deadline_exceeded"} or
 *    {"error": "cancelled"}.
 *  - Drain is graceful: beginShutdown() stops accepting, new requests
 *    get {"error": "shutting_down"}, in-flight requests finish and
 *    their responses are delivered, then waitDrained() flushes the
 *    stats JSON and the request-lane trace and returns.
 *
 * Threading model (the PR-10 event-loop rewrite): a single I/O thread
 * owns the epoll instance, the listening socket and every connection
 * fd — it accepts, reads, parses frames/lines, performs admission and
 * flushes output buffers; it never executes a handler. Admitted
 * requests run on the pool (sized so at least one worker exists even
 * on a single-core container — the loop must stay responsive while a
 * sweep runs). Handlers never touch a socket: they append the
 * serialized response to the connection's tx buffer (Conn::txMutex, a
 * ranked leaf) and wake the loop through an eventfd; the loop performs
 * the nonblocking sends and arms EPOLLOUT when a peer stops reading,
 * so one slow client backpressures its own buffer, never a thread.
 * Once a connection's unsent bytes pass a fixed high-water mark the
 * loop also stops reading it, and resumes below a low-water mark, so a
 * peer that pipelines requests without reading the answers holds the
 * daemon to a bounded buffer.
 * The fd itself is closed by the last owner of the shared Conn, so a
 * handler finishing after its client disconnected can never write to
 * a recycled descriptor.
 *
 * Wire dialects: a connection whose first bytes are the "CPB1" magic
 * speaks the multiplexed binary framing (serve/framing.hh) — many
 * concurrent streams, per-stream cancellation; anything else is
 * NDJSON, one request line at a time, exactly the PR-4 dialect, so
 * every pre-existing client keeps working unmodified.
 */

#ifndef COPERNICUS_SERVE_SERVER_HH
#define COPERNICUS_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "common/lock_order.hh"
#include "common/mutex.hh"
#include "common/stat_group.hh"
#include "common/thread_annotations.hh"
#include "common/thread_pool.hh"
#include "common/types.hh"
#include "serve/framing.hh"
#include "serve/protocol.hh"
#include "serve/result_memo.hh"
#include "trace/bounded_ring.hh"
#include "trace/span.hh"

namespace copernicus {

/** Daemon configuration (the copernicus_serve flags). */
struct ServeOptions
{
    /** Unix-domain socket path; unlinked on start and on drain. */
    std::string socketPath = "/tmp/copernicus_serve.sock";

    /**
     * Loopback TCP port instead of the Unix socket; -1 disables TCP,
     * 0 binds an ephemeral port (read it back with Server::tcpPort()).
     */
    int tcpPort = -1;

    /** Max requests in flight; the next one is rejected queue_full. */
    std::size_t queueCapacity = 64;

    /** Handler pool lanes, resolved through effectiveJobs(). */
    unsigned workers = 0;

    /** Default deadline for requests without timeout_ms; 0 = none. */
    double defaultTimeoutMs = 0;

    /** Cap on generated/loaded matrix dimensions per request. */
    Index maxMatrixDim = 4096;

    /**
     * Per-request payload cap. A binary frame declaring more is
     * answered bad_request on its stream and its payload is discarded
     * without buffering. An NDJSON line longer than this is answered
     * bad_request as soon as it passes the cap, without buffering past
     * it, then discarded through its newline. Either way the
     * connection survives.
     */
    std::uint64_t maxFrameBytes = defaultMaxFrameBytes;

    /**
     * Byte budget of the plan_formats result memo (LRU, keyed on
     * content hash + config fingerprint); 0 disables memoization.
     */
    std::uint64_t memoBytes = 8ull << 20;

    /** Where waitDrained() writes the stats dump; "" = nowhere. */
    std::string statsJsonPath;

    /** Where waitDrained() writes the request-lane trace; "" = off. */
    std::string tracePath;

    /** Where waitDrained() dumps the flight recorder; "" = nowhere. */
    std::string flightRecPath;

    /**
     * Run the observability plane: span recording into
     * SpanCollector::global(), one wide event per request into
     * FlightRecorder::global(), trace ids on the wire. The daemon
     * leaves this on (the plane is designed to be cheap enough to);
     * the overhead benchmark turns it off for its baseline.
     */
    bool observability = true;

    /** Wide-event ring capacity when observability is on. */
    std::size_t flightRecorderCapacity = 512;
};

/** One request-lane trace record (written to tracePath at drain). */
struct RequestSpan
{
    Endpoint endpoint = Endpoint::Ping;
    std::uint64_t id = 0;
    std::uint64_t startUs = 0;
    std::uint64_t endUs = 0;
    std::string outcome; ///< "ok" or an error code
};

/** The daemon. Construct, start(), then waitDrained() blocks. */
class Server
{
  public:
    explicit Server(ServeOptions options);

    /** Joins everything if the caller forgot waitDrained(). */
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind the socket and spawn the event loop. Runs no lint pass: the
     * registry the daemon serves is fixed at build time and checked by
     * copernicus_lint in CI. Throws FatalError when the socket cannot
     * be bound.
     */
    void start();

    /**
     * Begin a graceful drain: stop admitting (new requests are
     * answered shutting_down) and deregister the listen socket. Safe
     * from any thread, including request handlers; idempotent.
     */
    void beginShutdown();

    /**
     * Async-signal-safe shutdown request (one atomic store); the event
     * loop notices within one epoll tick. Wire SIGINT/SIGTERM here.
     */
    static void requestShutdownFromSignal();

    /**
     * Block until a shutdown is requested, then drain: finish
     * in-flight requests, deliver their responses, join every thread,
     * flush statsJsonPath/tracePath, and release the socket.
     */
    void waitDrained();

    /** Actual TCP port once start() returned (ephemeral-port tests). */
    int tcpPort() const { return boundTcpPort; }

    /** True between start() and the beginning of a drain. */
    bool accepting() const;

    /**
     * The serve/thread_pool groups plus live load state
     * (`"queue_depth"`, an `"inflight"` array with per-request ages,
     * a `"memo"` object with the result-memo counters) as one JSON
     * doc — the stats endpoint's payload, which is also what
     * `copernicus_cli --top` polls.
     */
    std::string statsJson() const;

    /**
     * Prometheus text exposition of the serve counters, latency
     * histograms, pool and memo stats. Built entirely from
     * atomic reads and DistributionStat snapshots — a scrape never
     * holds a lock a request thread contends beyond one histogram
     * copy.
     */
    std::string metricsText() const;

    /**
     * The most recent request lanes, oldest first (snapshot under
     * lock). Recorded only when tracePath is set, the one reader at
     * drain, and bounded like the span ring: at most
     * SpanCollector::defaultCapacity, so the drain trace's request
     * lanes cover the same recent window as its spans.
     */
    std::vector<RequestSpan> spans() const;

    const ServeOptions &options() const { return opts; }

  private:
    /** Per-endpoint counters + latency histogram (group "serve"). */
    struct EndpointStats
    {
        std::unique_ptr<ScalarStat> accepted;
        std::unique_ptr<ScalarStat> rejected;
        std::unique_ptr<ScalarStat> completed;
        std::unique_ptr<ScalarStat> errors;
        std::unique_ptr<DistributionStat> latencyUs;
    };

    /** Which wire dialect a connection settled on. */
    enum class Protocol
    {
        Sniffing, ///< first bytes not seen yet
        Ndjson,   ///< newline-delimited JSON (the PR-4 dialect)
        Binary,   ///< CPB1 length-prefixed multiplexed frames
    };

    /**
     * One accepted connection. The fd is owned by this struct and
     * closed by its destructor, so whichever of the event loop and the
     * last in-flight handler drops its shared_ptr last also retires
     * the descriptor — there is no window where the fd number can be
     * recycled while a handler still holds it. Parse state (rxBuffer,
     * decoder, protocol) is touched only by the loop thread; the tx
     * buffer and the stream table are the two cross-thread surfaces,
     * each behind its own ranked mutex.
     */
    struct Conn
    {
        Conn(int fd_, std::uint64_t maxFrameBytes)
            : fd(fd_), decoder(maxFrameBytes)
        {
        }
        ~Conn();
        Conn(const Conn &) = delete;
        Conn &operator=(const Conn &) = delete;

        const int fd;
        std::atomic<bool> open{true};

        // --- loop-thread-only parse state ---
        Protocol protocol = Protocol::Sniffing;
        /**
         * Sniffing: the first bytes. NDJSON: the unfinished line,
         * never longer than the frame cap.
         */
        std::string rxBuffer;
        /** NDJSON: an over-long line was answered; drop through '\n'. */
        bool discardingLine = false;
        FrameDecoder decoder;
        bool wantWrite = false;  ///< EPOLLOUT currently armed
        bool readPaused = false; ///< EPOLLIN disarmed: tx backlog
        std::uint64_t nextSyntheticStream = 1; ///< NDJSON cancel keys

        /** Buffered output; the loop flushes, handlers only append. */
        Mutex txMutex{lock_rank::serveTx};
        std::string txBuffer COPERNICUS_GUARDED_BY(txMutex);
        std::size_t txOffset COPERNICUS_GUARDED_BY(txMutex) = 0;

        /** In-flight streams; value = the stream's cancel flag. */
        Mutex streamsMutex{lock_rank::serveStreams};
        std::map<std::uint64_t, std::shared_ptr<std::atomic<bool>>>
            streams COPERNICUS_GUARDED_BY(streamsMutex);
    };

    enum class Admit { Ok, Full, Draining };

    /** What a handler reports back for the request's wide event. */
    struct RequestObs
    {
        std::size_t formatsSwept = 0; ///< sweep endpoints only
        bool memoHit = false; ///< plan_formats served from the memo
    };

    /** One in-flight request, for --top's per-request ages. */
    struct InflightEntry
    {
        Endpoint endpoint = Endpoint::Ping;
        std::uint64_t id = 0;
        std::uint64_t startUs = 0;
    };

    /** A request's identity on its connection. */
    struct StreamHandle
    {
        bool binary = false;
        std::uint64_t streamId = 0; ///< wire id, or synthetic (NDJSON)
        std::shared_ptr<std::atomic<bool>> cancelFlag;
    };

    void bindSocket();

    // --- event loop (all private loop* methods run on loopThread) ---
    void loopMain();
    void loopAccept(
        std::map<int, std::shared_ptr<Conn>> &connsByFd);
    bool loopRead(const std::shared_ptr<Conn> &conn);
    bool consumeSniff(const std::shared_ptr<Conn> &conn);
    /** Split @p in into NDJSON lines, buffering the unfinished one. */
    void consumeNdjson(const std::shared_ptr<Conn> &conn,
                       std::string_view in);
    bool consumeBinary(const std::shared_ptr<Conn> &conn);
    void closeConn(std::map<int, std::shared_ptr<Conn>> &connsByFd,
                   const std::shared_ptr<Conn> &conn);
    void flushConn(const std::shared_ptr<Conn> &conn);
    /** Arm EPOLLOUT / pause EPOLLIN for @p unsent buffered bytes. */
    void updateInterest(const std::shared_ptr<Conn> &conn,
                        std::size_t unsent);
    void drainWakeups();
    void flushAllBeforeExit(
        std::map<int, std::shared_ptr<Conn>> &connsByFd);

    /**
     * Parse + admit one request payload (a JSON object without its
     * framing) and hand it to the pool. @p binary selects the response
     * dialect; @p wireStreamId is the frame's stream id (ignored for
     * NDJSON, which gets a synthetic key for disconnect-cancel).
     */
    void handlePayload(const std::shared_ptr<Conn> &conn,
                       const std::string &payload, bool binary,
                       std::uint64_t wireStreamId);
    void handleCancel(const std::shared_ptr<Conn> &conn,
                      std::uint64_t streamId);

    /**
     * @param receiptUs observeNowUs() when the payload was read — the
     *        queue-wait half of the latency split.
     * @param requestSpanId Pre-allocated id of the serve.request span,
     *        0 when span recording is off.
     */
    void runRequest(std::shared_ptr<Conn> conn, ServeRequest request,
                    StreamHandle stream, std::uint64_t receiptUs,
                    std::uint64_t requestSpanId);

    /** Dispatch to the endpoint handler; returns the result JSON. */
    std::string dispatch(const ServeRequest &request,
                         const std::function<bool()> &abortRequested,
                         RequestObs &obs);

    /** Record one wide event (no-op when observability is off). */
    void recordWideEvent(const ServeRequest &request,
                         std::string_view outcome, bool binary,
                         std::uint64_t receiptUs, std::uint64_t startUs,
                         std::uint64_t endUs, double timeoutMs,
                         std::uint64_t compressUs,
                         const RequestObs &obs);

    Admit tryAdmit();
    void releaseAdmission();

    /**
     * Append one response payload to the connection's tx buffer in its
     * wire dialect (frame or line) and get it flushed: immediately
     * when called on the loop thread, via a dirty-list entry plus an
     * eventfd wakeup otherwise. Safe from any thread.
     */
    void respond(const std::shared_ptr<Conn> &conn, bool binary,
                 std::uint64_t streamId, std::string_view payload);
    void wakeLoop();
    bool onLoopThread() const;

    std::uint64_t nowUs() const;
    EndpointStats &statsFor(Endpoint endpoint);

    ServeOptions opts;
    int listenFd = -1;
    int epollFd = -1;
    int wakeFd = -1;
    int boundTcpPort = -1;
    bool started = false;

    std::thread loopThread;
    std::atomic<bool> loopExit{false};
    std::thread::id loopThreadId;

    /** Cross-thread handoff to the loop: connections with fresh tx. */
    Mutex loopMutex{lock_rank::serveLoop};
    std::vector<std::shared_ptr<Conn>> dirtyConns
        COPERNICUS_GUARDED_BY(loopMutex);

    /**
     * Admission state, all under admitMutex. CV-paired, so it stays
     * std::mutex (documented exclusion, common/mutex.hh).
     */
    mutable std::mutex admitMutex;
    std::size_t inflight = 0;
    bool draining = false;
    std::condition_variable idleCv;  ///< inflight reached zero
    std::condition_variable drainCv; ///< draining flipped on
    /** Mirror of `draining` the loop polls without the CV mutex. */
    std::atomic<bool> drainingFlag{false};

    std::unique_ptr<ThreadPool> pool;
    std::unique_ptr<ResultMemo> memo;

    StatGroup grp{"serve"};
    std::vector<EndpointStats> endpointStats; ///< allEndpoints() order
    std::unique_ptr<ScalarStat> connections;
    std::unique_ptr<ScalarStat> badLines;
    /** badLines split by RequestParseError (satellite counters). */
    std::unique_ptr<ScalarStat> badLinesMalformed;
    std::unique_ptr<ScalarStat> badLinesUnknownOp;
    std::unique_ptr<ScalarStat> badLinesOther;
    /** Binary-framing protocol errors, by kind. */
    std::unique_ptr<ScalarStat> framesOversized;
    std::unique_ptr<ScalarStat> framesProtocolError;
    std::unique_ptr<ScalarStat> framesTruncated;
    std::unique_ptr<ScalarStat> streamsCancelled;
    ThreadPoolStats poolStats;

    mutable Mutex spansMutex{lock_rank::serveSpans};
    BoundedRing<RequestSpan> requestSpans COPERNICUS_GUARDED_BY(
        spansMutex){SpanCollector::defaultCapacity};

    /** In-flight registry for --top, under inflightMutex. */
    mutable Mutex inflightMutex{lock_rank::serveInflight};
    std::map<std::uint64_t, InflightEntry> inflightReqs
        COPERNICUS_GUARDED_BY(inflightMutex);
    std::uint64_t nextReqToken COPERNICUS_GUARDED_BY(inflightMutex) = 1;

    /** True when this server turned the span collector on. */
    bool observingSpans = false;
};

} // namespace copernicus

#endif // COPERNICUS_SERVE_SERVER_HH
