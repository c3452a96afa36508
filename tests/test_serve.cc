/**
 * @file
 * End-to-end tests of the characterization service daemon: protocol
 * round trips, the admission queue's explicit-rejection contract,
 * per-request deadlines, graceful drain, and golden comparisons of
 * the advise/run_study endpoints against the same computations run
 * offline. The daemon runs no lint at start-up; copernicus_lint and
 * the lint tests check the registry it serves.
 *
 * Every test starts a real Server on a private Unix socket and talks
 * to it through ServeClient — the same wire path production clients
 * use. Labeled tsan: the server spans acceptor, reader, and pool
 * threads, so this suite doubles as the serve concurrency test under
 * -DCOPERNICUS_SANITIZE=thread.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <chrono>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <thread>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/prometheus.hh"
#include "common/rng.hh"
#include "common/status.hh"
#include "common/trace_context.hh"
#include "core/advisor.hh"
#include "core/study.hh"
#include "matrix/stats.hh"
#include "serve/client.hh"
#include "serve/server.hh"
#include "trace/span.hh"
#include "workloads/generators.hh"

namespace copernicus {
namespace {

/** A private socket path per fixture so parallel ctest runs coexist. */
std::string
testSocketPath(const std::string &tag)
{
    static int counter = 0;
    return "/tmp/copernicus_test_" + std::to_string(::getpid()) + "_" +
           tag + "_" + std::to_string(counter++) + ".sock";
}

/** A bare nonblocking Unix-socket connection, or -1. */
int
rawConnect(const std::string &path)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_NONBLOCK, 0);
    if (fd < 0)
        return -1;
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(), sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        ::close(fd);
        return -1;
    }
    return fd;
}

/** Send all of @p data on nonblocking @p fd; false on error/timeout. */
bool
rawSendAll(int fd, const std::string &data)
{
    std::size_t sent = 0;
    while (sent < data.size()) {
        const ssize_t n = ::send(fd, data.data() + sent,
                                 data.size() - sent, MSG_NOSIGNAL);
        if (n > 0) {
            sent += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno != EAGAIN && errno != EWOULDBLOCK &&
            errno != EINTR)
            return false;
        pollfd writable{fd, POLLOUT, 0};
        if (::poll(&writable, 1, 10000) <= 0)
            return false;
    }
    return true;
}

/**
 * The next '\n'-terminated line from nonblocking @p fd, buffering the
 * excess in @p rx; "" when none arrives within @p timeoutMs.
 */
std::string
rawReadLine(int fd, std::string &rx, int timeoutMs)
{
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::milliseconds(timeoutMs);
    std::size_t end;
    while ((end = rx.find('\n')) == std::string::npos) {
        const auto left =
            std::chrono::duration_cast<std::chrono::milliseconds>(
                deadline - std::chrono::steady_clock::now())
                .count();
        pollfd readable{fd, POLLIN, 0};
        if (left <= 0 ||
            ::poll(&readable, 1, static_cast<int>(left)) <= 0)
            return "";
        char buf[4096];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n == 0)
            return "";
        if (n > 0)
            rx.append(buf, static_cast<std::size_t>(n));
    }
    std::string line = rx.substr(0, end);
    rx.erase(0, end + 1);
    return line;
}

/** Start a quiet server; drain it on teardown. */
class ServeTest : public ::testing::Test
{
  protected:
    void
    startServer(std::size_t queueCapacity = 8, unsigned workers = 0,
                const std::string &tracePath = "",
                std::uint64_t maxFrameBytes = defaultMaxFrameBytes)
    {
        savedLevel = logLevel();
        setLogLevel(LogLevel::Warn);
        ServeOptions options;
        options.socketPath = testSocketPath("serve");
        options.queueCapacity = queueCapacity;
        options.workers = workers;
        options.tracePath = tracePath;
        options.maxFrameBytes = maxFrameBytes;
        server = std::make_unique<Server>(std::move(options));
        server->start();
    }

    void
    TearDown() override
    {
        if (server) {
            server->beginShutdown();
            server->waitDrained();
            server.reset();
        }
        setLogLevel(savedLevel);
    }

    ServeClient
    client()
    {
        ServeClient c =
            ServeClient::connectUnix(server->options().socketPath);
        c.setReceiveTimeoutMs(30000);
        return c;
    }

    /** One stat of the server's "serve" group (-1 when absent). */
    double
    serveStat(const std::string &name) const
    {
        JsonValue root;
        if (!parseJson(server->statsJson(), root))
            return -1;
        const JsonValue *groups = root.find("groups");
        if (groups == nullptr)
            return -1;
        for (const JsonValue &group : groups->elements) {
            const JsonValue *stats = group.find("stats");
            if (group.stringOr("group", "") != "serve" || stats == nullptr)
                continue;
            for (const JsonValue &stat : stats->elements)
                if (stat.stringOr("name", "") == name)
                    return stat.numberOr("value", -1);
        }
        return -1;
    }

    std::unique_ptr<Server> server;
    LogLevel savedLevel = LogLevel::Info;
};

TEST_F(ServeTest, PingRoundTripEchoesIdAndOp)
{
    startServer();
    ServeClient c = client();
    const JsonValue r1 = c.call("ping");
    EXPECT_TRUE(r1.boolOr("ok", false));
    EXPECT_DOUBLE_EQ(r1.numberOr("id", 0), 1);
    EXPECT_EQ(r1.stringOr("op", ""), "ping");
    const JsonValue *result = r1.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->boolOr("pong", false));

    // Ids increment per client and are echoed verbatim.
    const JsonValue r2 = c.call("ping");
    EXPECT_DOUBLE_EQ(r2.numberOr("id", 0), 2);
}

TEST_F(ServeTest, MalformedLineGetsBadRequestNotSilence)
{
    startServer();
    ServeClient c = client();
    const std::string raw = c.requestLine("this is not json");
    JsonValue response;
    ASSERT_TRUE(parseJson(raw, response));
    EXPECT_FALSE(response.boolOr("ok", true));
    EXPECT_EQ(response.stringOr("error", ""), "bad_request");
}

TEST_F(ServeTest, UnknownOpAndBadParamsAreBadRequests)
{
    startServer();
    ServeClient c = client();
    const std::string raw = c.requestLine("{\"op\": \"explode\"}");
    JsonValue response;
    ASSERT_TRUE(parseJson(raw, response));
    EXPECT_EQ(response.stringOr("error", ""), "bad_request");

    // A known op with missing params is rejected after admission,
    // with the op echoed back.
    const JsonValue advise = c.call("advise");
    EXPECT_FALSE(advise.boolOr("ok", true));
    EXPECT_EQ(advise.stringOr("error", ""), "bad_request");
    EXPECT_EQ(advise.stringOr("op", ""), "advise");
}

/**
 * Golden test of the advise endpoint: for three canonical matrix
 * families the served recommendation must equal what the offline
 * advisor (the format_advisor example's path) computes from the same
 * matrix.
 */
TEST_F(ServeTest, AdviseMatchesOfflineAdvisorOnCanonicalMatrices)
{
    startServer();
    ServeClient c = client();

    struct Golden
    {
        const char *name;
        std::string spec;
        TripletMatrix matrix;
    };
    Rng bandRng(1);
    Rng denseRng(2);
    Rng sparseRng(3);
    std::vector<Golden> goldens;
    goldens.push_back(
        {"band",
         "{\"kind\": \"band\", \"n\": 256, \"width\": 8, \"seed\": 1}",
         bandMatrix(256, 8, bandRng)});
    goldens.push_back({"random-dense",
                       "{\"kind\": \"random\", \"n\": 128, "
                       "\"density\": 0.3, \"seed\": 2}",
                       randomMatrix(128, 0.3, denseRng)});
    goldens.push_back({"random-sparse",
                       "{\"kind\": \"random\", \"n\": 256, "
                       "\"density\": 0.01, \"seed\": 3}",
                       randomMatrix(256, 0.01, sparseRng)});

    for (const Golden &golden : goldens) {
        for (const char *goal : {"latency", "power", "balanced"}) {
            const JsonValue response =
                c.call("advise", "{\"matrix\": " + golden.spec +
                                     ", \"goal\": \"" + goal + "\"}");
            ASSERT_TRUE(response.boolOr("ok", false))
                << golden.name << " " << goal;
            const JsonValue *result = response.find("result");
            ASSERT_NE(result, nullptr);

            const Recommendation offline =
                advise(computeStats(golden.matrix),
                       goalFromName(goal));
            EXPECT_EQ(result->stringOr("format", ""),
                      formatName(offline.format))
                << golden.name << " " << goal;
            EXPECT_DOUBLE_EQ(result->numberOr("partition_size", 0),
                             offline.partitionSize)
                << golden.name << " " << goal;
        }
    }
}

TEST_F(ServeTest, RunStudyMatchesOfflineStudy)
{
    startServer();
    ServeClient c = client();
    const JsonValue response = c.call(
        "run_study",
        "{\"matrix\": {\"kind\": \"random\", \"n\": 64, \"density\": "
        "0.1, \"seed\": 5}, \"partition_sizes\": [8, 16], "
        "\"formats\": [\"CSR\", \"COO\"]}");
    ASSERT_TRUE(response.boolOr("ok", false));
    const JsonValue *result = response.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_DOUBLE_EQ(result->numberOr("rows", 0), 4);

    StudyConfig cfg;
    cfg.partitionSizes = {8, 16};
    cfg.formats = {FormatKind::CSR, FormatKind::COO};
    cfg.jobs = 1;
    Study study(cfg);
    Rng rng(5);
    study.addWorkload("request", randomMatrix(64, 0.1, rng));
    const std::vector<FormatMetrics> offline =
        study.run().aggregateByFormat();

    const JsonValue *byFormat = result->find("by_format");
    ASSERT_NE(byFormat, nullptr);
    ASSERT_TRUE(byFormat->isArray());
    ASSERT_EQ(byFormat->elements.size(), offline.size());
    for (std::size_t i = 0; i < offline.size(); ++i) {
        const JsonValue &served = byFormat->elements[i];
        EXPECT_EQ(served.stringOr("format", ""),
                  formatName(offline[i].format));
        EXPECT_NEAR(served.numberOr("mean_sigma", -1),
                    offline[i].meanSigma, 1e-12);
        EXPECT_NEAR(served.numberOr("bw_util", -1),
                    offline[i].bandwidthUtilization, 1e-12);
    }
}

TEST_F(ServeTest, OverloadIsRejectedExplicitlyNeverHung)
{
    startServer(/*queueCapacity=*/1);

    // One client parks the only admission slot in a long sleep...
    std::thread sleeper([this] {
        ServeClient c = client();
        const JsonValue response =
            c.call("sleep", "{\"ms\": 600}");
        EXPECT_TRUE(response.boolOr("ok", false));
    });

    // Wait until the sleeper actually holds the slot before probing:
    // otherwise a probe ping can win the race for the single slot and
    // bounce the sleeper's own request instead.
    const auto admitDeadline = std::chrono::steady_clock::now() +
                               std::chrono::seconds(10);
    while (server->statsJson().find("\"queue_depth\": 1") ==
               std::string::npos &&
           std::chrono::steady_clock::now() < admitDeadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));

    // ...so a second client's requests must bounce with queue_full —
    // an immediate explicit rejection, not a queued/hung request.
    ServeClient probe = client();
    bool sawQueueFull = false;
    const auto deadline = std::chrono::steady_clock::now() +
                          std::chrono::seconds(10);
    while (!sawQueueFull &&
           std::chrono::steady_clock::now() < deadline) {
        const auto start = std::chrono::steady_clock::now();
        const JsonValue response = probe.call("ping");
        const double ms =
            std::chrono::duration_cast<
                std::chrono::duration<double, std::milli>>(
                std::chrono::steady_clock::now() - start)
                .count();
        if (!response.boolOr("ok", true)) {
            EXPECT_EQ(response.stringOr("error", ""), "queue_full");
            // Rejection is immediate backpressure, not a timeout.
            EXPECT_LT(ms, 1000.0);
            sawQueueFull = true;
        }
    }
    EXPECT_TRUE(sawQueueFull);
    sleeper.join();
}

TEST_F(ServeTest, NonReadingPipelinerIsPausedThenAnsweredInOrder)
{
    // The only admission slot sleeps, so each ping below is answered
    // at once, in request order, with queue_full.
    startServer(/*queueCapacity=*/1);
    const int sleeper = rawConnect(server->options().socketPath);
    ASSERT_GE(sleeper, 0);
    const std::string sleep =
        "{\"op\": \"sleep\", \"params\": {\"ms\": 60000}}\n";
    ASSERT_EQ(::send(sleeper, sleep.data(), sleep.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(sleep.size()));
    const auto admitDeadline = std::chrono::steady_clock::now() +
                               std::chrono::seconds(10);
    while (server->statsJson().find("\"queue_depth\": 1") ==
               std::string::npos &&
           std::chrono::steady_clock::now() < admitDeadline)
        std::this_thread::sleep_for(std::chrono::milliseconds(2));

    // The peer pipelines pings and never reads. Once the daemon holds
    // more unsent answers than its high-water mark it stops reading
    // too, so the peer's socket fills up and stays unwritable.
    const int peer = rawConnect(server->options().socketPath);
    ASSERT_GE(peer, 0);
    const std::size_t maxRequests = 200000;
    std::size_t requests = 0;
    std::string pending;
    bool stalled = false;
    while (!stalled && (!pending.empty() || requests < maxRequests)) {
        if (pending.empty())
            pending = "{\"id\": " + std::to_string(++requests) +
                      ", \"op\": \"ping\"}\n";
        const ssize_t n =
            ::send(peer, pending.data(), pending.size(), MSG_NOSIGNAL);
        if (n > 0) {
            pending.erase(0, static_cast<std::size_t>(n));
            continue;
        }
        ASSERT_TRUE(errno == EAGAIN || errno == EWOULDBLOCK ||
                    errno == EINTR)
            << std::strerror(errno);
        pollfd writable{peer, POLLOUT, 0};
        stalled = ::poll(&writable, 1, 1000) == 0;
    }
    EXPECT_TRUE(stalled) << "the daemon read all " << requests
                         << " pipelined requests";

    // Once the peer drains, every request is answered, in order.
    std::size_t next = 1;
    std::string rx;
    const auto drainDeadline = std::chrono::steady_clock::now() +
                               std::chrono::seconds(60);
    while (next <= requests &&
           std::chrono::steady_clock::now() < drainDeadline) {
        pollfd ready{peer,
                     static_cast<short>(pending.empty()
                                            ? POLLIN
                                            : POLLIN | POLLOUT),
                     0};
        if (::poll(&ready, 1, 1000) <= 0)
            continue;
        if ((ready.revents & POLLOUT) != 0) {
            const ssize_t n = ::send(peer, pending.data(), pending.size(),
                                     MSG_NOSIGNAL);
            if (n > 0)
                pending.erase(0, static_cast<std::size_t>(n));
        }
        char buf[65536];
        const ssize_t n = ::recv(peer, buf, sizeof(buf), 0);
        if (n == 0)
            break;
        if (n < 0)
            continue;
        rx.append(buf, static_cast<std::size_t>(n));
        std::size_t start = 0;
        for (std::size_t end; (end = rx.find('\n', start)) !=
                              std::string::npos;
             start = end + 1) {
            JsonValue response;
            ASSERT_TRUE(
                parseJson(rx.substr(start, end - start), response));
            ASSERT_EQ(response.numberOr("id", 0),
                      static_cast<double>(next));
            ASSERT_EQ(response.stringOr("error", ""), "queue_full");
            ++next;
        }
        rx.erase(0, start);
    }
    EXPECT_EQ(next, requests + 1);
    ::close(peer);
    // Hanging up cancels the sleep, so the fixture drains at once.
    ::close(sleeper);
}

TEST_F(ServeTest, DeadlineCancelsSleepCooperatively)
{
    startServer();
    ServeClient c = client();
    const auto start = std::chrono::steady_clock::now();
    const JsonValue response =
        c.call("sleep", "{\"ms\": 30000}", /*timeoutMs=*/50);
    const double ms = std::chrono::duration_cast<
                          std::chrono::duration<double, std::milli>>(
                          std::chrono::steady_clock::now() - start)
                          .count();
    EXPECT_FALSE(response.boolOr("ok", true));
    EXPECT_EQ(response.stringOr("error", ""), "deadline_exceeded");
    EXPECT_LT(ms, 5000.0);
}

TEST_F(ServeTest, DeadlineCancelsStudyBetweenDesignPoints)
{
    startServer();
    ServeClient c = client();
    // A sweep this size takes well over a millisecond, so the
    // cancelCheck poll at a partition boundary must fire.
    const JsonValue response = c.call(
        "run_study",
        "{\"matrix\": {\"kind\": \"random\", \"n\": 512, "
        "\"density\": 0.05, \"seed\": 1}}",
        /*timeoutMs=*/1);
    EXPECT_FALSE(response.boolOr("ok", true));
    EXPECT_EQ(response.stringOr("error", ""), "deadline_exceeded");
}

TEST_F(ServeTest, GracefulDrainFinishesInflightAndRejectsNew)
{
    // Request spans are recorded only for a trace, written at drain.
    const std::string tracePath = ::testing::TempDir() + "drain_trace_" +
                                  std::to_string(::getpid()) + ".json";
    startServer(/*queueCapacity=*/4, /*workers=*/0, tracePath);

    // An in-flight request started before the drain...
    std::thread inflight([this] {
        ServeClient c = client();
        const JsonValue response = c.call("sleep", "{\"ms\": 400}");
        // ...must still be answered ok, not dropped.
        EXPECT_TRUE(response.boolOr("ok", false));
    });
    std::this_thread::sleep_for(std::chrono::milliseconds(100));

    ServeClient c = client();
    const JsonValue shutdown = c.call("shutdown");
    EXPECT_TRUE(shutdown.boolOr("ok", false));

    // The same connection stays readable during the drain, but new
    // requests are shed with shutting_down.
    const JsonValue late = c.call("ping");
    EXPECT_FALSE(late.boolOr("ok", true));
    EXPECT_EQ(late.stringOr("error", ""), "shutting_down");

    server->waitDrained();
    inflight.join();

    // The request-lane trace recorded the slept request as completed.
    bool sawSleepOk = false;
    for (const RequestSpan &span : server->spans())
        if (span.endpoint == Endpoint::Sleep && span.outcome == "ok")
            sawSleepOk = true;
    EXPECT_TRUE(sawSleepOk);
    server.reset();
    std::remove(tracePath.c_str());
}

TEST_F(ServeTest, RequestSpansAreKeptOnlyForATrace)
{
    // Without a trace path nothing reads the request lanes, so a
    // long-lived daemon must not grow a record per request.
    startServer();
    ServeClient c = client();
    for (int i = 0; i < 100; ++i)
        ASSERT_TRUE(c.call("ping").boolOr("ok", false));
    EXPECT_TRUE(server->spans().empty());
}

TEST_F(ServeTest, TracedRequestLanesAreBounded)
{
    // Under a trace the request lanes keep the span ring's recent
    // window, not one record per request for the daemon's lifetime.
    const std::string tracePath = ::testing::TempDir() +
                                  "bounded_lanes_" +
                                  std::to_string(::getpid()) + ".json";
    startServer(/*queueCapacity=*/8, /*workers=*/0, tracePath);
    ServeClient c = client();
    for (int i = 0; i < 4100; ++i)
        ASSERT_TRUE(c.call("ping").boolOr("ok", false));
    const std::vector<RequestSpan> lanes = server->spans();
    ASSERT_EQ(lanes.size(), 4096u); // the span ring's capacity
    EXPECT_EQ(lanes.front().id, 5u); // oldest retained
    EXPECT_EQ(lanes.back().id, 4100u);
    server->beginShutdown();
    server->waitDrained();
    server.reset();
    std::remove(tracePath.c_str());
}

TEST_F(ServeTest, OverlongNdjsonLineIsAnsweredThenDiscarded)
{
    const std::uint64_t cap = 64 * 1024;
    startServer(/*queueCapacity=*/8, /*workers=*/0, /*tracePath=*/"", cap);
    const double badBefore = serveStat("bad_lines");
    const double otherBefore = serveStat("bad_lines.other");
    const int fd = rawConnect(server->options().socketPath);
    ASSERT_GE(fd, 0);

    // Four times the cap and no newline: the daemon answers once as
    // soon as the line passes the cap, instead of buffering it.
    std::string rx;
    ASSERT_TRUE(rawSendAll(fd, std::string(4 * cap, 'x')));
    JsonValue response;
    const std::string rejected = rawReadLine(fd, rx, 10000);
    ASSERT_TRUE(parseJson(rejected, response))
        << "no answer before the newline";
    EXPECT_FALSE(response.boolOr("ok", true));
    EXPECT_EQ(response.stringOr("error", ""), "bad_request");

    // The rest of the line is dropped through its newline, and the
    // same connection serves the next request.
    ASSERT_TRUE(rawSendAll(fd, "\n{\"id\": 7, \"op\": \"ping\"}\n"));
    const std::string pong = rawReadLine(fd, rx, 10000);
    ASSERT_TRUE(parseJson(pong, response)) << pong;
    EXPECT_TRUE(response.boolOr("ok", false)) << pong;
    EXPECT_DOUBLE_EQ(response.numberOr("id", 0), 7);
    EXPECT_TRUE(rx.empty()) << rx;
    EXPECT_DOUBLE_EQ(serveStat("bad_lines"), badBefore + 1);
    EXPECT_DOUBLE_EQ(serveStat("bad_lines.other"), otherBefore + 1);
    ::close(fd);
}

TEST_F(ServeTest, StatsEndpointExportsServeGroup)
{
    startServer();
    ServeClient c = client();
    (void)c.call("ping");
    (void)c.call("ping");
    const JsonValue response = c.call("stats");
    ASSERT_TRUE(response.boolOr("ok", false));
    const JsonValue *result = response.find("result");
    ASSERT_NE(result, nullptr);
    const JsonValue *groups = result->find("groups");
    ASSERT_NE(groups, nullptr);
    ASSERT_TRUE(groups->isArray());

    bool sawServe = false;
    for (const JsonValue &group : groups->elements) {
        if (group.stringOr("group", "") != "serve")
            continue;
        sawServe = true;
        // The ping counters cover at least the two calls above.
        const JsonValue *stats = group.find("stats");
        ASSERT_NE(stats, nullptr);
        double pingCompleted = -1;
        for (const JsonValue &stat : stats->elements)
            if (stat.stringOr("name", "") == "ping.completed")
                pingCompleted = stat.numberOr("value", -1);
        EXPECT_GE(pingCompleted, 2.0);
    }
    EXPECT_TRUE(sawServe);
}

TEST_F(ServeTest, ValidateTileReportsCleanEncodings)
{
    startServer();
    ServeClient c = client();
    const JsonValue response = c.call(
        "validate_tile",
        "{\"matrix\": {\"kind\": \"random\", \"n\": 64, \"density\": "
        "0.1, \"seed\": 9}, \"partition_size\": 16, \"formats\": "
        "[\"CSR\", \"COO\", \"ELL\"]}");
    ASSERT_TRUE(response.boolOr("ok", false));
    const JsonValue *result = response.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->boolOr("ok", false));
    EXPECT_GT(result->numberOr("checked", 0), 0.0);
    const JsonValue *violations = result->find("violations");
    ASSERT_NE(violations, nullptr);
    EXPECT_TRUE(violations->elements.empty());
}

TEST_F(ServeTest, BadLineCountersClassifyFrameErrors)
{
    startServer();
    ServeClient c = client();

    // One of each failure class; every one must still get exactly one
    // bad_request response (the never-silent contract), and the
    // classified counters must tell them apart.
    for (const char *line :
         {"this is not json",            // malformed_json
          "[1, 2]",                      // not an object -> other
          "{\"id\": 3}",                 // missing op -> other
          "{\"op\": \"warp_drive\"}",    // unknown_op
          "{\"op\": \"ping\", \"params\": 7}"}) { // bad params -> other
        const std::string raw = c.requestLine(line);
        JsonValue response;
        ASSERT_TRUE(parseJson(raw, response)) << raw;
        EXPECT_FALSE(response.boolOr("ok", true));
        EXPECT_EQ(response.stringOr("error", ""), "bad_request");
    }

    const JsonValue stats = c.call("stats");
    ASSERT_TRUE(stats.boolOr("ok", false));
    const JsonValue *result = stats.find("result");
    ASSERT_NE(result, nullptr);
    std::map<std::string, double> values;
    const JsonValue *groups = result->find("groups");
    ASSERT_NE(groups, nullptr);
    for (const JsonValue &group : groups->elements) {
        if (group.stringOr("group", "") != "serve")
            continue;
        const JsonValue *list = group.find("stats");
        ASSERT_NE(list, nullptr);
        for (const JsonValue &stat : list->elements)
            values[stat.stringOr("name", "")] =
                stat.numberOr("value", -1);
    }
    EXPECT_DOUBLE_EQ(values["bad_lines"], 5);
    EXPECT_DOUBLE_EQ(values["bad_lines.malformed_json"], 1);
    EXPECT_DOUBLE_EQ(values["bad_lines.unknown_op"], 1);
    EXPECT_DOUBLE_EQ(values["bad_lines.other"], 3);
}

TEST_F(ServeTest, MetricsEndpointPassesExpositionValidator)
{
    startServer();
    ServeClient c = client();
    (void)c.call("ping");
    (void)c.call("ping");

    const JsonValue response = c.call("metrics");
    ASSERT_TRUE(response.boolOr("ok", false));
    const JsonValue *result = response.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_NE(result->stringOr("content_type", "")
                  .find("version=0.0.4"),
              std::string::npos);
    const std::string body = result->stringOr("body", "");
    ASSERT_FALSE(body.empty());

    std::string error;
    EXPECT_TRUE(validatePrometheusText(body, error)) << error;

    // The scrape carries the request counters and the latency
    // histogram for the pings above.
    EXPECT_NE(body.find("copernicus_serve_requests_completed_total"
                        "{endpoint=\"ping\"} 2"),
              std::string::npos)
        << body;
    EXPECT_NE(
        body.find("copernicus_serve_request_duration_seconds_bucket"),
        std::string::npos);
    EXPECT_NE(body.find("copernicus_serve_queue_depth"),
              std::string::npos);
}

TEST_F(ServeTest, DumpFlightRecInlineAndToFile)
{
    startServer();
    ServeClient c = client();
    (void)c.call("ping");

    // Inline: the dump document is the result itself.
    const JsonValue inlineDump = c.call("dump_flightrec");
    ASSERT_TRUE(inlineDump.boolOr("ok", false));
    const JsonValue *doc = inlineDump.find("result");
    ASSERT_NE(doc, nullptr);
    const JsonValue *events = doc->find("wide_events");
    ASSERT_NE(events, nullptr);
    ASSERT_TRUE(events->isArray());
    bool sawPing = false;
    for (const JsonValue &event : events->elements)
        if (event.stringOr("type", "") == "request" &&
            event.stringOr("endpoint", "") == "ping")
            sawPing = true;
    EXPECT_TRUE(sawPing);

    // To a file: the response reports counts, the file holds the doc.
    const std::string path =
        "/tmp/copernicus_test_" + std::to_string(::getpid()) +
        "_flightrec.json";
    const JsonValue fileDump = c.call(
        "dump_flightrec", "{\"path\": \"" + path + "\"}");
    ASSERT_TRUE(fileDump.boolOr("ok", false));
    const JsonValue *result = fileDump.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_GE(result->numberOr("wide_events", 0), 1.0);

    std::ifstream in(path);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    JsonValue parsed;
    EXPECT_TRUE(parseJson(buf.str(), parsed));
    EXPECT_NE(parsed.find("wide_events"), nullptr);
    std::remove(path.c_str());
}

/**
 * The golden span-tree check (tentpole acceptance): one run_study
 * request must yield one causally-linked tree,
 *
 *   client.run_study
 *     -> serve.request
 *          -> serve.queue
 *          -> serve.handler
 *               -> study.run
 *                    -> study.partition, study.encode...
 *
 * independent of how many lanes the handler pool has — the tree's
 * shape is the contract, the lanes are an implementation detail.
 */
void
checkRunStudySpanTree(ServeClient &c, Server &server)
{
    setCurrentTraceContext(TraceContext{});
    const JsonValue response = c.call(
        "run_study",
        "{\"matrix\": {\"kind\": \"random\", \"n\": 48, \"density\": "
        "0.1, \"seed\": 11}, \"partition_sizes\": [16], "
        "\"formats\": [\"CSR\", \"COO\"]}");
    ASSERT_TRUE(response.boolOr("ok", false));
    const std::string traceHex = response.stringOr("trace_id", "");
    ASSERT_FALSE(traceHex.empty());
    const std::uint64_t traceId = traceIdFromHex(traceHex);
    ASSERT_NE(traceId, 0u);

    // Drain before inspecting: span records land as handlers unwind.
    server.beginShutdown();
    server.waitDrained();

    const std::vector<SpanRecord> spans =
        SpanCollector::global().spansForTrace(traceId);
    std::map<std::string, std::vector<SpanRecord>> byName;
    for (const SpanRecord &span : spans)
        byName[span.name].push_back(span);

    for (const char *unique :
         {"client.run_study", "serve.request", "serve.queue",
          "serve.handler", "study.run", "study.partition"})
        ASSERT_EQ(byName[unique].size(), 1u)
            << unique << " count in trace " << traceHex;
    // One encode span per (format, partition size) design point.
    ASSERT_EQ(byName["study.encode"].size(), 2u);

    const SpanRecord &clientSpan = byName["client.run_study"][0];
    const SpanRecord &request = byName["serve.request"][0];
    const SpanRecord &queue = byName["serve.queue"][0];
    const SpanRecord &handler = byName["serve.handler"][0];
    const SpanRecord &run = byName["study.run"][0];
    const SpanRecord &part = byName["study.partition"][0];

    // Parent/child edges, root to leaves.
    EXPECT_EQ(clientSpan.parentSpanId, 0u);
    EXPECT_EQ(request.parentSpanId, clientSpan.spanId);
    EXPECT_EQ(queue.parentSpanId, request.spanId);
    EXPECT_EQ(handler.parentSpanId, request.spanId);
    EXPECT_EQ(run.parentSpanId, handler.spanId);
    EXPECT_EQ(part.parentSpanId, run.spanId);
    for (const SpanRecord &encode : byName["study.encode"])
        EXPECT_EQ(encode.parentSpanId, run.spanId);

    // Interval sanity on the shared clock: queue precedes handler,
    // children nest inside study.run.
    EXPECT_LE(queue.startUs, handler.startUs);
    EXPECT_LE(run.startUs, part.startUs);
    EXPECT_LE(part.endUs, run.endUs);
}

TEST_F(ServeTest, SpanTreeGoldenAtOneWorker)
{
    startServer(/*queueCapacity=*/8, /*workers=*/1);
    ServeClient c = client();
    checkRunStudySpanTree(c, *server);
    server.reset();
}

TEST_F(ServeTest, SpanTreeGoldenAtFourWorkers)
{
    startServer(/*queueCapacity=*/8, /*workers=*/4);
    ServeClient c = client();
    checkRunStudySpanTree(c, *server);
    server.reset();
}

/**
 * End-to-end acceptance: one run_study request is visible in all
 * three observability surfaces at once — its span tree in the drained
 * Chrome trace, its wide event in the flight recorder, and its
 * latency in the Prometheus scrape.
 */
TEST_F(ServeTest, ObservabilityEndToEndForOneRequest)
{
    const std::string tracePath =
        "/tmp/copernicus_test_" + std::to_string(::getpid()) +
        "_serve_trace.json";
    startServer(/*queueCapacity=*/8, /*workers=*/2, tracePath);
    ServeClient c = client();
    setCurrentTraceContext(TraceContext{});

    const JsonValue response = c.call(
        "run_study",
        "{\"matrix\": {\"kind\": \"band\", \"n\": 64, \"width\": 4, "
        "\"seed\": 2}, \"partition_sizes\": [16], "
        "\"formats\": [\"CSR\"]}");
    ASSERT_TRUE(response.boolOr("ok", false));
    const std::string traceHex = response.stringOr("trace_id", "");
    ASSERT_FALSE(traceHex.empty());

    // Surface 1: the latency histogram counts the request.
    const JsonValue metrics = c.call("metrics");
    ASSERT_TRUE(metrics.boolOr("ok", false));
    const std::string body =
        metrics.find("result")->stringOr("body", "");
    std::string error;
    EXPECT_TRUE(validatePrometheusText(body, error)) << error;
    EXPECT_NE(
        body.find("copernicus_serve_requests_completed_total"
                  "{endpoint=\"run_study\"} 1"),
        std::string::npos)
        << body;

    // Surface 2: the wide event is retrievable from the recorder and
    // carries the same trace id the response echoed.
    const JsonValue dump = c.call("dump_flightrec");
    ASSERT_TRUE(dump.boolOr("ok", false));
    bool sawWideEvent = false;
    for (const JsonValue &event :
         dump.find("result")->find("wide_events")->elements) {
        if (event.stringOr("endpoint", "") == "run_study" &&
            event.stringOr("trace_id", "") == traceHex) {
            sawWideEvent = true;
            EXPECT_EQ(event.stringOr("outcome", ""), "ok");
            EXPECT_GE(event.numberOr("latency_us", -1), 0.0);
            EXPECT_GE(event.numberOr("queue_wait_us", -1), 0.0);
            EXPECT_DOUBLE_EQ(event.numberOr("formats_swept", 0), 1);
        }
    }
    EXPECT_TRUE(sawWideEvent);

    // Surface 3: after drain, the Chrome trace holds the span tree —
    // span events whose args carry our trace id, with the causal
    // edges intact (checked structurally above; here the artifact).
    server->beginShutdown();
    server->waitDrained();
    server.reset();

    std::ifstream in(tracePath);
    ASSERT_TRUE(in.good());
    std::ostringstream buf;
    buf << in.rdbuf();
    const std::string trace = buf.str();
    JsonValue parsed;
    ASSERT_TRUE(parseJson(trace, parsed));
    std::size_t spanEvents = 0;
    const JsonValue *traceEvents = parsed.find("traceEvents");
    ASSERT_NE(traceEvents, nullptr);
    ASSERT_TRUE(traceEvents->isArray());
    for (const JsonValue &event : traceEvents->elements) {
        const JsonValue *args = event.find("args");
        if (args != nullptr &&
            args->stringOr("trace_id", "") == traceHex)
            ++spanEvents;
    }
    // client.run_study + serve.request/queue/handler + study.run +
    // study.partition + one study.encode = at least 7 span events.
    EXPECT_GE(spanEvents, 7u);
    std::remove(tracePath.c_str());
}

} // namespace
} // namespace copernicus
