/**
 * @file
 * The CPB1 binary framing layer and its server integration: decoder
 * robustness on every segmentation (byte-at-a-time feeds, frames split
 * across many segments, truncated final frames, oversized and
 * structurally broken headers), dialect parity (the same request must
 * produce byte-identical response payloads over NDJSON and binary),
 * request multiplexing with out-of-order response claiming, per-stream
 * cancellation, the plan_formats result memo, and EINTR
 * resilience of the client I/O loops under a signal storm.
 *
 * Labeled tsan: the multiplex/cancel tests drive concurrent handlers
 * against the event loop, so the suite doubles as the framing
 * concurrency test under -DCOPERNICUS_SANITIZE=thread.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <csignal>
#include <cstring>
#include <functional>
#include <memory>
#include <string>
#include <thread>

#include <pthread.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/logging.hh"
#include "common/json.hh"
#include "serve/client.hh"
#include "serve/framing.hh"
#include "serve/server.hh"
#include "trace/span.hh"

namespace copernicus {
namespace {

/** A private socket path per fixture so parallel ctest runs coexist. */
std::string
testSocketPath(const std::string &tag)
{
    static int counter = 0;
    return "/tmp/copernicus_framing_" + std::to_string(::getpid()) +
           "_" + tag + "_" + std::to_string(counter++) + ".sock";
}

/** Build a raw 16-byte header (for malformed-input tests). */
std::string
rawHeader(std::uint32_t length, std::uint8_t type, std::uint8_t flags,
          std::uint16_t reserved, std::uint64_t streamId)
{
    std::string header(frameHeaderSize, '\0');
    for (int i = 0; i < 4; ++i)
        header[static_cast<std::size_t>(i)] =
            static_cast<char>((length >> (8 * i)) & 0xff);
    header[4] = static_cast<char>(type);
    header[5] = static_cast<char>(flags);
    header[6] = static_cast<char>(reserved & 0xff);
    header[7] = static_cast<char>((reserved >> 8) & 0xff);
    for (int i = 0; i < 8; ++i)
        header[static_cast<std::size_t>(8 + i)] =
            static_cast<char>((streamId >> (8 * i)) & 0xff);
    return header;
}

// ---------------------------------------------------------------------
// Decoder unit tests (no server).
// ---------------------------------------------------------------------

TEST(FrameDecoderTest, RoundTripSingleAndBackToBackFrames)
{
    const std::string wire =
        encodeFrame(FrameType::Request, 7, "{\"op\": \"ping\"}") +
        encodeFrame(FrameType::Response, 9, "{\"ok\": true}") +
        encodeFrame(FrameType::Cancel, 11, "");
    FrameDecoder decoder;
    decoder.feed(wire.data(), wire.size());

    Frame frame;
    ASSERT_EQ(decoder.next(frame), DecodeResult::GotFrame);
    EXPECT_EQ(frame.type, FrameType::Request);
    EXPECT_EQ(frame.streamId, 7u);
    EXPECT_EQ(frame.payload, "{\"op\": \"ping\"}");

    ASSERT_EQ(decoder.next(frame), DecodeResult::GotFrame);
    EXPECT_EQ(frame.type, FrameType::Response);
    EXPECT_EQ(frame.streamId, 9u);
    EXPECT_EQ(frame.payload, "{\"ok\": true}");

    ASSERT_EQ(decoder.next(frame), DecodeResult::GotFrame);
    EXPECT_EQ(frame.type, FrameType::Cancel);
    EXPECT_EQ(frame.streamId, 11u);
    EXPECT_TRUE(frame.payload.empty());

    EXPECT_EQ(decoder.next(frame), DecodeResult::NeedMore);
    EXPECT_FALSE(decoder.midFrame());
}

TEST(FrameDecoderTest, ByteAtATimeFeedAssemblesOneFrame)
{
    const std::string wire = encodeFrame(
        FrameType::Request, 42, "{\"op\": \"stats\", \"id\": 3}");
    FrameDecoder decoder;
    Frame frame;
    for (std::size_t i = 0; i + 1 < wire.size(); ++i) {
        decoder.feed(&wire[i], 1);
        ASSERT_EQ(decoder.next(frame), DecodeResult::NeedMore)
            << "frame completed early at byte " << i;
        EXPECT_TRUE(decoder.midFrame());
    }
    decoder.feed(&wire[wire.size() - 1], 1);
    ASSERT_EQ(decoder.next(frame), DecodeResult::GotFrame);
    EXPECT_EQ(frame.streamId, 42u);
    EXPECT_EQ(frame.payload, "{\"op\": \"stats\", \"id\": 3}");
    EXPECT_FALSE(decoder.midFrame());
}

TEST(FrameDecoderTest, ManyFramesSurviveArbitrarySegmentation)
{
    std::string wire;
    for (std::uint64_t id = 1; id <= 20; ++id)
        appendFrame(wire, FrameType::Request, id,
                    "{\"seq\": " + std::to_string(id) + "}");
    // Prime-sized chunks guarantee every boundary lands mid-header or
    // mid-payload at some point.
    FrameDecoder decoder;
    std::uint64_t expect = 1;
    Frame frame;
    for (std::size_t off = 0; off < wire.size(); off += 7) {
        const std::size_t n = std::min<std::size_t>(7, wire.size() - off);
        decoder.feed(wire.data() + off, n);
        for (;;) {
            const DecodeResult result = decoder.next(frame);
            if (result == DecodeResult::NeedMore)
                break;
            ASSERT_EQ(result, DecodeResult::GotFrame);
            EXPECT_EQ(frame.streamId, expect);
            EXPECT_EQ(frame.payload,
                      "{\"seq\": " + std::to_string(expect) + "}");
            ++expect;
        }
    }
    EXPECT_EQ(expect, 21u);
    EXPECT_FALSE(decoder.midFrame());
}

TEST(FrameDecoderTest, TruncatedFinalFrameIsVisibleAsMidFrame)
{
    const std::string wire =
        encodeFrame(FrameType::Request, 5, "{\"op\": \"ping\"}");
    Frame frame;

    // Truncated mid-header.
    FrameDecoder headerCut;
    headerCut.feed(wire.data(), frameHeaderSize - 6);
    EXPECT_EQ(headerCut.next(frame), DecodeResult::NeedMore);
    EXPECT_TRUE(headerCut.midFrame());

    // Truncated mid-payload.
    FrameDecoder payloadCut;
    payloadCut.feed(wire.data(), wire.size() - 3);
    EXPECT_EQ(payloadCut.next(frame), DecodeResult::NeedMore);
    EXPECT_TRUE(payloadCut.midFrame());
}

TEST(FrameDecoderTest, OversizedFrameIsDiscardedUnbufferedThenRecovers)
{
    FrameDecoder decoder(64);
    const std::string big(1000, 'x');
    const std::string wire =
        encodeFrame(FrameType::Request, 9, big) +
        encodeFrame(FrameType::Request, 10, "{\"after\": true}");

    Frame frame;
    bool sawOversized = false;
    bool sawFollowing = false;
    for (std::size_t off = 0; off < wire.size(); off += 100) {
        const std::size_t n =
            std::min<std::size_t>(100, wire.size() - off);
        decoder.feed(wire.data() + off, n);
        // The discard must not accumulate the payload: whatever is
        // buffered stays bounded by one feed chunk plus a header.
        EXPECT_LE(decoder.bufferedBytes(), 100 + frameHeaderSize);
        for (;;) {
            const DecodeResult result = decoder.next(frame);
            if (result == DecodeResult::NeedMore)
                break;
            if (result == DecodeResult::Oversized) {
                EXPECT_FALSE(sawOversized);
                sawOversized = true;
                EXPECT_EQ(frame.streamId, 9u);
                EXPECT_EQ(decoder.declaredLength(), big.size());
                continue;
            }
            ASSERT_EQ(result, DecodeResult::GotFrame);
            EXPECT_EQ(frame.streamId, 10u);
            EXPECT_EQ(frame.payload, "{\"after\": true}");
            sawFollowing = true;
        }
    }
    EXPECT_TRUE(sawOversized);
    EXPECT_TRUE(sawFollowing);
}

TEST(FrameDecoderTest, StructurallyBrokenHeadersAreFatal)
{
    Frame frame;
    struct Case
    {
        const char *what;
        std::string header;
    };
    const Case cases[] = {
        {"unknown frame type", rawHeader(0, 9, 0, 0, 1)},
        {"non-zero flags", rawHeader(0, 1, 1, 0, 1)},
        {"non-zero reserved", rawHeader(0, 1, 0, 7, 1)},
        {"length beyond hard cap",
         rawHeader(0xffffffffu, 1, 0, 0, 1)},
    };
    for (const Case &c : cases) {
        FrameDecoder decoder;
        decoder.feed(c.header.data(), c.header.size());
        ASSERT_EQ(decoder.next(frame), DecodeResult::Fatal) << c.what;
        EXPECT_FALSE(decoder.error().empty()) << c.what;
        // A broken stream stays broken: later feeds change nothing.
        const std::string good =
            encodeFrame(FrameType::Request, 2, "{}");
        decoder.feed(good.data(), good.size());
        EXPECT_EQ(decoder.next(frame), DecodeResult::Fatal) << c.what;
    }
}

TEST(FrameDecoderTest, AppendFrameMatchesEncodeFrame)
{
    std::string out = "prefix";
    appendFrame(out, FrameType::Response, 123, "{\"ok\": true}");
    EXPECT_EQ(out, "prefix" + encodeFrame(FrameType::Response, 123,
                                          "{\"ok\": true}"));
}

// ---------------------------------------------------------------------
// Server integration.
// ---------------------------------------------------------------------

/** Start a quiet server; drain it on teardown. */
class FramingServerTest : public ::testing::Test
{
  protected:
    void
    startServer(const std::function<void(ServeOptions &)> &tweak = {})
    {
        savedLevel = logLevel();
        setLogLevel(LogLevel::Warn);
        ServeOptions options;
        options.socketPath = testSocketPath("srv");
        if (tweak)
            tweak(options);
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
    ndjsonClient()
    {
        ServeClient c =
            ServeClient::connectUnix(server->options().socketPath);
        c.setReceiveTimeoutMs(30000);
        return c;
    }

    ServeClient
    binaryClient()
    {
        ServeClient c = ndjsonClient();
        c.enableBinaryFraming();
        return c;
    }

    /** Raw connected fd for malformed-wire tests; caller closes. */
    int
    rawConnect()
    {
        const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
        EXPECT_GE(fd, 0);
        sockaddr_un addr{};
        addr.sun_family = AF_UNIX;
        std::strncpy(addr.sun_path,
                     server->options().socketPath.c_str(),
                     sizeof(addr.sun_path) - 1);
        EXPECT_EQ(::connect(
                      fd, reinterpret_cast<const sockaddr *>(&addr),
                      sizeof(addr)),
                  0);
        return fd;
    }

    /** Poll metricsText() until @p needle appears (loop is async). */
    bool
    metricsContain(const std::string &needle, int deadlineMs = 3000)
    {
        const auto deadline =
            std::chrono::steady_clock::now() +
            std::chrono::milliseconds(deadlineMs);
        while (std::chrono::steady_clock::now() < deadline) {
            if (server->metricsText().find(needle) !=
                std::string::npos)
                return true;
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5));
        }
        return false;
    }

    std::unique_ptr<Server> server;
    LogLevel savedLevel = LogLevel::Info;
};

TEST_F(FramingServerTest, BinaryPingRoundTrip)
{
    startServer();
    ServeClient c = binaryClient();
    const JsonValue r = c.call("ping");
    EXPECT_TRUE(r.boolOr("ok", false));
    EXPECT_EQ(r.stringOr("op", ""), "ping");
    const JsonValue *result = r.find("result");
    ASSERT_NE(result, nullptr);
    EXPECT_TRUE(result->boolOr("pong", false));
}

/**
 * Golden dialect parity: the same request must yield byte-identical
 * response payloads whether it travels as an NDJSON line or a CPB1
 * frame — the framing layer multiplexes, it never re-encodes.
 * Observability is off so responses carry no per-request trace ids,
 * and the memo is off so both dialects compute independently.
 */
TEST_F(FramingServerTest, NdjsonAndBinaryResponsesAreByteIdentical)
{
    startServer([](ServeOptions &options) {
        options.observability = false;
        options.memoBytes = 0;
    });
    const std::string requests[] = {
        "{\"op\": \"ping\", \"id\": 1}",
        "{\"op\": \"advise\", \"id\": 2, \"params\": {\"matrix\": "
        "{\"kind\": \"band\", \"n\": 64, \"width\": 4, \"seed\": 1}, "
        "\"goal\": \"latency\"}}",
        "{\"op\": \"run_study\", \"id\": 3, \"params\": {\"matrix\": "
        "{\"kind\": \"random\", \"n\": 48, \"density\": 0.05, "
        "\"seed\": 2}, \"partitions\": [16, 32]}}",
        "{\"op\": \"explode\", \"id\": 4}",
    };
    ServeClient ndjson = ndjsonClient();
    ServeClient binary = binaryClient();
    for (const std::string &request : requests) {
        const std::string viaLine = ndjson.requestLine(request);
        const std::string viaFrame = binary.requestLine(request);
        EXPECT_EQ(viaLine, viaFrame) << request;
    }
}

TEST_F(FramingServerTest, MultiplexedResponsesClaimedOutOfOrder)
{
    startServer([](ServeOptions &options) { options.workers = 2; });
    ServeClient c = binaryClient();

    // A long sleep and a ping in flight together; the ping's response
    // must be claimable while the sleep still occupies its worker.
    const std::uint64_t slow =
        c.startCall("sleep", "{\"ms\": 300}");
    const std::uint64_t quick = c.startCall("ping");
    const auto start = std::chrono::steady_clock::now();
    const JsonValue quickR = c.awaitCall(quick);
    const double quickMs =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    EXPECT_TRUE(quickR.boolOr("ok", false));
    EXPECT_LT(quickMs, 250.0)
        << "ping response was serialized behind the sleep";
    const JsonValue slowR = c.awaitCall(slow);
    EXPECT_TRUE(slowR.boolOr("ok", false));

    // Out-of-order claiming also works once both responses arrived.
    const std::uint64_t first = c.startCall("ping");
    const std::uint64_t second = c.startCall("ping");
    EXPECT_TRUE(c.awaitCall(second).boolOr("ok", false));
    EXPECT_TRUE(c.awaitCall(first).boolOr("ok", false));
}

TEST_F(FramingServerTest, CancelStreamLeavesSiblingUnaffected)
{
    startServer([](ServeOptions &options) { options.workers = 2; });
    ServeClient c = binaryClient();

    const std::uint64_t doomed =
        c.startCall("sleep", "{\"ms\": 30000}");
    const std::uint64_t sibling =
        c.startCall("sleep", "{\"ms\": 50}");
    c.cancelCall(doomed);

    const JsonValue cancelled = c.awaitCall(doomed);
    EXPECT_FALSE(cancelled.boolOr("ok", true));
    EXPECT_EQ(cancelled.stringOr("error", ""), "cancelled");

    const JsonValue ok = c.awaitCall(sibling);
    EXPECT_TRUE(ok.boolOr("ok", false));
    EXPECT_EQ(ok.stringOr("error", ""), "");

    // The connection is fully usable afterwards.
    EXPECT_TRUE(c.call("ping").boolOr("ok", false));
    EXPECT_TRUE(metricsContain(
        "copernicus_serve_streams_cancelled_total 1"));
}

TEST_F(FramingServerTest, CancellingUnknownStreamIsSilentlyIgnored)
{
    startServer();
    ServeClient c = binaryClient();
    c.cancelCall(9999);
    EXPECT_TRUE(c.call("ping").boolOr("ok", false));
    EXPECT_TRUE(
        metricsContain("copernicus_serve_streams_cancelled_total 0"));
}

TEST_F(FramingServerTest, DuplicateInFlightStreamIdIsRejected)
{
    startServer([](ServeOptions &options) { options.workers = 2; });
    ServeClient c = binaryClient();
    const int fd = rawConnect();
    ASSERT_EQ(::send(fd, framingMagic.data(), framingMagic.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(framingMagic.size()));
    const std::string sleepReq = encodeFrame(
        FrameType::Request, 5,
        "{\"op\": \"sleep\", \"id\": 1, \"params\": {\"ms\": 400}}");
    const std::string dupReq = encodeFrame(
        FrameType::Request, 5, "{\"op\": \"ping\", \"id\": 2}");
    ASSERT_EQ(::send(fd, sleepReq.data(), sleepReq.size(),
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(sleepReq.size()));
    ASSERT_EQ(::send(fd, dupReq.data(), dupReq.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(dupReq.size()));

    // First response on the wire is the duplicate's rejection (the
    // sleep is still running); then the sleep's own success.
    FrameDecoder decoder;
    Frame frame;
    int got = 0;
    char buf[4096];
    while (got < 2) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0);
        decoder.feed(buf, static_cast<std::size_t>(n));
        while (decoder.next(frame) == DecodeResult::GotFrame) {
            ASSERT_EQ(frame.type, FrameType::Response);
            EXPECT_EQ(frame.streamId, 5u);
            JsonValue response;
            ASSERT_TRUE(parseJson(frame.payload, response));
            if (got == 0) {
                EXPECT_EQ(response.stringOr("error", ""),
                          "bad_request");
            } else {
                EXPECT_TRUE(response.boolOr("ok", false));
            }
            ++got;
        }
    }
    ::close(fd);
    EXPECT_TRUE(metricsContain(
        "copernicus_serve_frame_errors_total{reason=\"protocol\"} 1"));
}

TEST_F(FramingServerTest, MemoHitServesIdenticalPayloadWithoutResweep)
{
    startServer(
        [](ServeOptions &options) { options.observability = false; });
    ServeClient c = binaryClient();
    const std::string plan =
        "{\"op\": \"plan_formats\", \"id\": 8, \"params\": "
        "{\"matrix\": {\"kind\": \"band\", \"n\": 96, \"width\": 6, "
        "\"seed\": 4}, \"partition_size\": 32}}";
    const std::string cold = c.requestLine(plan);
    EXPECT_TRUE(metricsContain("copernicus_serve_memo_misses_total 1"));
    const std::string warm = c.requestLine(plan);
    EXPECT_EQ(cold, warm);
    EXPECT_TRUE(metricsContain("copernicus_serve_memo_hits_total 1"));

    // advise is not memoized: a repeat neither hits nor misses.
    const std::string advise =
        "{\"op\": \"advise\", \"id\": 7, \"params\": {\"matrix\": "
        "{\"kind\": \"band\", \"n\": 96, \"width\": 6, \"seed\": 4}, "
        "\"goal\": \"balanced\"}}";
    EXPECT_EQ(c.requestLine(advise), c.requestLine(advise));
    EXPECT_TRUE(metricsContain("copernicus_serve_memo_hits_total 1"));
    EXPECT_TRUE(metricsContain("copernicus_serve_memo_misses_total 1"));
}

/**
 * The acceptance shape of the memo: a warm plan_formats is served
 * without re-planning, observable as a memo hit that records a
 * serve.memo span but no new scheduler.plan span.
 */
TEST_F(FramingServerTest, WarmMemoPlanFormatsRunsNoPlanSweep)
{
    startServer(); // observability on (the daemon default)
    ServeClient c = binaryClient();
    const std::string plan =
        "{\"op\": \"plan_formats\", \"id\": 1, \"params\": "
        "{\"matrix\": {\"kind\": \"band\", \"n\": 80, \"width\": 4, "
        "\"seed\": 9}, \"partition_size\": 16}}";
    const auto countSpans = [](const std::string &name) {
        std::size_t n = 0;
        for (const SpanRecord &span :
             SpanCollector::global().snapshot())
            if (span.name == name)
                ++n;
        return n;
    };

    c.requestLine(plan);
    const std::size_t planAfterCold = countSpans("scheduler.plan");
    const std::size_t memoAfterCold = countSpans("serve.memo");
    EXPECT_GT(planAfterCold, 0u) << "a cold plan_formats did not plan";

    c.requestLine(plan);
    EXPECT_EQ(countSpans("scheduler.plan"), planAfterCold)
        << "warm memo plan_formats re-ran the format sweep";
    EXPECT_EQ(countSpans("serve.memo"), memoAfterCold + 1)
        << "warm plan_formats was not served from the memo";
    EXPECT_TRUE(metricsContain("copernicus_serve_memo_hits_total 1"));
}

TEST_F(FramingServerTest, OversizedFrameGetsBadRequestConnectionLives)
{
    startServer([](ServeOptions &options) {
        options.maxFrameBytes = 1024;
    });
    ServeClient c = binaryClient();
    const std::string padding(4096, 'x');
    const std::string raw = c.requestLine(
        "{\"op\": \"ping\", \"id\": 1, \"params\": {\"pad\": \"" +
        padding + "\"}}");
    JsonValue response;
    ASSERT_TRUE(parseJson(raw, response));
    EXPECT_FALSE(response.boolOr("ok", true));
    EXPECT_EQ(response.stringOr("error", ""), "bad_request");

    // The connection and its framing survive the discard.
    EXPECT_TRUE(c.call("ping").boolOr("ok", false));
    EXPECT_TRUE(metricsContain(
        "copernicus_serve_frame_errors_total{reason=\"oversized\"} 1"));
}

TEST_F(FramingServerTest, FrameSplitAcrossManySegmentsIsAssembled)
{
    startServer();
    const int fd = rawConnect();
    const std::string wire =
        std::string(framingMagic) +
        encodeFrame(FrameType::Request, 42,
                    "{\"op\": \"ping\", \"id\": 9}");
    // Dribble the magic and the frame one byte at a time — worst-case
    // TCP segmentation.
    for (char byte : wire) {
        ASSERT_EQ(::send(fd, &byte, 1, MSG_NOSIGNAL), 1);
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    }
    FrameDecoder decoder;
    Frame frame;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0);
        decoder.feed(buf, static_cast<std::size_t>(n));
        const DecodeResult result = decoder.next(frame);
        if (result == DecodeResult::NeedMore)
            continue;
        ASSERT_EQ(result, DecodeResult::GotFrame);
        break;
    }
    ::close(fd);
    EXPECT_EQ(frame.type, FrameType::Response);
    EXPECT_EQ(frame.streamId, 42u);
    JsonValue response;
    ASSERT_TRUE(parseJson(frame.payload, response));
    EXPECT_TRUE(response.boolOr("ok", false));
    EXPECT_DOUBLE_EQ(response.numberOr("id", 0), 9);
}

TEST_F(FramingServerTest, TruncatedFinalFrameCountsAsTruncated)
{
    startServer();
    const int fd = rawConnect();
    const std::string wire =
        std::string(framingMagic) +
        encodeFrame(FrameType::Request, 3, "{\"op\": \"ping\"}");
    // Magic plus ten header bytes, then a hard close mid-frame.
    ASSERT_EQ(::send(fd, wire.data(), framingMagic.size() + 10,
                     MSG_NOSIGNAL),
              static_cast<ssize_t>(framingMagic.size() + 10));
    ::close(fd);
    EXPECT_TRUE(metricsContain(
        "copernicus_serve_frame_errors_total{reason=\"truncated\"} 1"));
}

TEST_F(FramingServerTest, ResponseFrameFromClientIsProtocolError)
{
    startServer();
    const int fd = rawConnect();
    const std::string wire =
        std::string(framingMagic) +
        encodeFrame(FrameType::Response, 6, "{\"ok\": true}");
    ASSERT_EQ(::send(fd, wire.data(), wire.size(), MSG_NOSIGNAL),
              static_cast<ssize_t>(wire.size()));
    FrameDecoder decoder;
    Frame frame;
    char buf[4096];
    for (;;) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0);
        decoder.feed(buf, static_cast<std::size_t>(n));
        if (decoder.next(frame) == DecodeResult::GotFrame)
            break;
    }
    ::close(fd);
    EXPECT_EQ(frame.streamId, 6u);
    JsonValue response;
    ASSERT_TRUE(parseJson(frame.payload, response));
    EXPECT_EQ(response.stringOr("error", ""), "bad_request");
    EXPECT_TRUE(metricsContain(
        "copernicus_serve_frame_errors_total{reason=\"protocol\"} 1"));
}

TEST_F(FramingServerTest, MagicPrefixThenDivergenceFallsBackToNdjson)
{
    startServer();
    const int fd = rawConnect();
    // Three bytes of the magic, a pause, then a divergent byte: the
    // sniffer must settle on NDJSON and treat "CPBX" as a request
    // line (a malformed one, answered bad_request).
    ASSERT_EQ(::send(fd, "CPB", 3, MSG_NOSIGNAL), 3);
    std::this_thread::sleep_for(std::chrono::milliseconds(20));
    ASSERT_EQ(::send(fd, "X\n", 2, MSG_NOSIGNAL), 2);
    std::string line;
    char buf[4096];
    while (line.find('\n') == std::string::npos) {
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        ASSERT_GT(n, 0);
        line.append(buf, static_cast<std::size_t>(n));
    }
    ::close(fd);
    JsonValue response;
    ASSERT_TRUE(parseJson(line.substr(0, line.find('\n')), response));
    EXPECT_EQ(response.stringOr("error", ""), "bad_request");
}

namespace {
void
onUsr1(int)
{
    // Interruption is the point; the handler only needs to exist.
}
} // namespace

TEST_F(FramingServerTest, ClientIoSurvivesEintrSignalStorm)
{
    startServer();
    ServeClient c = binaryClient();

    // SIGUSR1 without SA_RESTART, so every blocking send/recv on the
    // client thread can fail with EINTR mid-call; the client's I/O
    // loops must retry transparently.
    struct sigaction action{};
    struct sigaction saved{};
    action.sa_handler = onUsr1;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0;
    ASSERT_EQ(sigaction(SIGUSR1, &action, &saved), 0);

    std::atomic<bool> stop{false};
    const pthread_t target = pthread_self();
    std::thread storm([&stop, target] {
        while (!stop.load(std::memory_order_relaxed)) {
            pthread_kill(target, SIGUSR1);
            std::this_thread::sleep_for(
                std::chrono::microseconds(200));
        }
    });
    for (int i = 0; i < 100; ++i) {
        const JsonValue r = c.call("ping");
        ASSERT_TRUE(r.boolOr("ok", false)) << "iteration " << i;
    }
    stop.store(true, std::memory_order_relaxed);
    storm.join();
    ASSERT_EQ(sigaction(SIGUSR1, &saved, nullptr), 0);
}

} // namespace
} // namespace copernicus
