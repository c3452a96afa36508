#include "serve/client.hh"

#include <cerrno>
#include <cstring>
#include <sstream>
#include <utility>

#include <netinet/in.h>
#include <sys/socket.h>
#include <sys/time.h>
#include <sys/un.h>
#include <unistd.h>

#include "common/status.hh"
#include "common/trace_context.hh"
#include "trace/span.hh"

namespace copernicus {

ServeClient
ServeClient::connectUnix(const std::string &path)
{
    sockaddr_un addr{};
    COPERNICUS_FATAL_IF(path.empty() || path.size() >= sizeof(addr.sun_path),
                        "serve client: bad socket path '" + path + "'");
    const int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    COPERNICUS_FATAL_IF(fd < 0, std::string("serve client: socket(): ") +
                                    std::strerror(errno));
    addr.sun_family = AF_UNIX;
    std::strncpy(addr.sun_path, path.c_str(),
                 sizeof(addr.sun_path) - 1);
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        fatal("serve client: cannot connect to '" + path +
              "': " + std::strerror(err));
    }
    return ServeClient(fd);
}

ServeClient
ServeClient::connectTcp(int port)
{
    COPERNICUS_FATAL_IF(port <= 0 || port > 65535,
                        "serve client: bad TCP port " + std::to_string(port));
    const int fd = ::socket(AF_INET, SOCK_STREAM, 0);
    COPERNICUS_FATAL_IF(fd < 0, std::string("serve client: socket(): ") +
                                    std::strerror(errno));
    sockaddr_in addr{};
    addr.sin_family = AF_INET;
    addr.sin_addr.s_addr = htonl(INADDR_LOOPBACK);
    addr.sin_port = htons(static_cast<std::uint16_t>(port));
    if (::connect(fd, reinterpret_cast<const sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const int err = errno;
        ::close(fd);
        fatal("serve client: cannot connect to 127.0.0.1:" +
              std::to_string(port) + ": " + std::strerror(err));
    }
    return ServeClient(fd);
}

ServeClient::~ServeClient()
{
    if (fd >= 0)
        ::close(fd);
}

ServeClient::ServeClient(ServeClient &&other) noexcept
    : fd(other.fd), rxBuffer(std::move(other.rxBuffer)),
      nextRequestId(other.nextRequestId), binary(other.binary),
      decoder(std::move(other.decoder)),
      nextStreamId(other.nextStreamId),
      readyResponses(std::move(other.readyResponses))
{
    other.fd = -1;
}

ServeClient &
ServeClient::operator=(ServeClient &&other) noexcept
{
    if (this != &other) {
        if (fd >= 0)
            ::close(fd);
        fd = other.fd;
        rxBuffer = std::move(other.rxBuffer);
        nextRequestId = other.nextRequestId;
        binary = other.binary;
        decoder = std::move(other.decoder);
        nextStreamId = other.nextStreamId;
        readyResponses = std::move(other.readyResponses);
        other.fd = -1;
    }
    return *this;
}

void
ServeClient::setReceiveTimeoutMs(double ms)
{
    COPERNICUS_FATAL_IF(fd < 0, "serve client: not connected");
    timeval tv{};
    if (ms > 0) {
        tv.tv_sec = static_cast<time_t>(ms / 1000.0);
        tv.tv_usec = static_cast<suseconds_t>(
            (ms - static_cast<double>(tv.tv_sec) * 1000.0) * 1000.0);
    }
    COPERNICUS_FATAL_IF(::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &tv,
                                     sizeof(tv)) != 0,
                        std::string("serve client: SO_RCVTIMEO: ") +
                            std::strerror(errno));
}

void
ServeClient::sendAll(const char *data, std::size_t size)
{
    std::size_t sent = 0;
    while (sent < size) {
        const ssize_t n =
            ::send(fd, data + sent, size - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        COPERNICUS_FATAL_IF(n <= 0, std::string("serve client: send(): ") +
                                        std::strerror(errno));
        sent += static_cast<std::size_t>(n);
    }
}

void
ServeClient::enableBinaryFraming()
{
    COPERNICUS_FATAL_IF(fd < 0, "serve client: not connected");
    COPERNICUS_FATAL_IF(binary,
                        "serve client: binary framing already enabled");
    // The magic must be the first bytes the server sees — its dialect
    // sniff is settled by them. Nothing can have been received yet
    // either (the server never speaks first).
    COPERNICUS_FATAL_IF(
        !rxBuffer.empty(),
        "serve client: enableBinaryFraming() after NDJSON traffic");
    sendAll(framingMagic.data(), framingMagic.size());
    binary = true;
}

std::uint64_t
ServeClient::sendRequestFrame(const std::string &payload)
{
    const std::uint64_t streamId = nextStreamId++;
    const std::string frame =
        encodeFrame(FrameType::Request, streamId, payload);
    sendAll(frame.data(), frame.size());
    return streamId;
}

std::string
ServeClient::awaitResponse(std::uint64_t streamId)
{
    for (;;) {
        const auto it = readyResponses.find(streamId);
        if (it != readyResponses.end()) {
            std::string payload = std::move(it->second);
            readyResponses.erase(it);
            return payload;
        }
        char buf[4096];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        COPERNICUS_FATAL_IF(n == 0,
                            "serve client: server closed the connection");
        COPERNICUS_FATAL_IF(n < 0,
                            errno == EAGAIN || errno == EWOULDBLOCK
                                ? std::string("serve client: receive timeout")
                                : std::string("serve client: recv(): ") +
                                      std::strerror(errno));
        decoder.feed(buf, static_cast<std::size_t>(n));
        Frame frame;
        for (;;) {
            const DecodeResult result = decoder.next(frame);
            if (result == DecodeResult::NeedMore)
                break;
            COPERNICUS_FATAL_IF(result == DecodeResult::Fatal,
                                "serve client: broken frame stream: " +
                                    decoder.error());
            COPERNICUS_FATAL_IF(result == DecodeResult::Oversized,
                                "serve client: oversized response frame (" +
                                    std::to_string(decoder.declaredLength()) +
                                    " bytes)");
            COPERNICUS_FATAL_IF(
                frame.type != FrameType::Response,
                "serve client: unexpected frame type from server");
            readyResponses[frame.streamId] = std::move(frame.payload);
        }
    }
}

std::string
ServeClient::requestLine(const std::string &line)
{
    COPERNICUS_FATAL_IF(fd < 0, "serve client: not connected");
    std::string framed = line;
    // NDJSON framing: a raw newline inside the request (e.g. from a
    // multi-line shell --params string) would split it into two wire
    // lines. Valid JSON never needs a newline inside a string literal,
    // so mapping them to spaces is lossless inter-token whitespace.
    // Applied under binary framing too, so a request renders
    // byte-identically on either dialect.
    for (char &c : framed)
        if (c == '\n' || c == '\r')
            c = ' ';
    if (binary)
        return awaitResponse(sendRequestFrame(framed));

    framed.push_back('\n');
    sendAll(framed.data(), framed.size());
    for (;;) {
        const std::size_t pos = rxBuffer.find('\n');
        if (pos != std::string::npos) {
            std::string response = rxBuffer.substr(0, pos);
            rxBuffer.erase(0, pos + 1);
            return response;
        }
        char buf[4096];
        const ssize_t n = ::recv(fd, buf, sizeof(buf), 0);
        if (n < 0 && errno == EINTR)
            continue;
        COPERNICUS_FATAL_IF(n == 0,
                            "serve client: server closed the connection");
        COPERNICUS_FATAL_IF(n < 0,
                            errno == EAGAIN || errno == EWOULDBLOCK
                                ? std::string("serve client: receive timeout")
                                : std::string("serve client: recv(): ") +
                                      std::strerror(errno));
        rxBuffer.append(buf, static_cast<std::size_t>(n));
    }
}

std::string
ServeClient::buildRequestJson(const std::string &op,
                              const std::string &paramsJson,
                              double timeoutMs)
{
    // The caller's client.<op> span identity travels on the wire, so
    // the server's serve.request span parents under it — one causal
    // tree across the socket. With recording off the context is
    // invalid and the request carries no trace field.
    const TraceContext trace = currentTraceContext();

    std::ostringstream request;
    request << "{\"op\": ";
    writeJsonString(request, op);
    request << ", \"id\": " << nextRequestId++;
    if (timeoutMs > 0) {
        request << ", \"timeout_ms\": ";
        writeJsonNumber(request, timeoutMs);
    }
    if (trace.valid()) {
        request << ", \"trace\": {\"trace_id\": ";
        writeJsonString(request, traceIdToHex(trace.traceId));
        request << ", \"parent_span_id\": ";
        writeJsonString(request, traceIdToHex(trace.spanId));
        request << '}';
    }
    if (!paramsJson.empty())
        request << ", \"params\": " << paramsJson;
    request << '}';
    return request.str();
}

JsonValue
ServeClient::call(const std::string &op, const std::string &paramsJson,
                  double timeoutMs)
{
    // The span covers the whole round trip; buildRequestJson picks its
    // identity up from the thread-local context it establishes.
    const ScopedSpan span("client." + op, "client");
    const std::string line =
        requestLine(buildRequestJson(op, paramsJson, timeoutMs));
    JsonValue response;
    COPERNICUS_FATAL_IF(!parseJson(line, response) || !response.isObject(),
                        "serve client: malformed response line: " + line);
    return response;
}

std::uint64_t
ServeClient::startCall(const std::string &op,
                       const std::string &paramsJson, double timeoutMs)
{
    COPERNICUS_FATAL_IF(fd < 0, "serve client: not connected");
    COPERNICUS_FATAL_IF(!binary,
                        "serve client: startCall() requires binary framing");
    // The span covers only the send — the response is claimed later
    // by awaitCall(), possibly out of order — but its identity still
    // rides the wire, so the server side parents correctly.
    const ScopedSpan span("client." + op, "client");
    return sendRequestFrame(
        buildRequestJson(op, paramsJson, timeoutMs));
}

JsonValue
ServeClient::awaitCall(std::uint64_t streamId)
{
    COPERNICUS_FATAL_IF(!binary,
                        "serve client: awaitCall() requires binary framing");
    const std::string payload = awaitResponse(streamId);
    JsonValue response;
    COPERNICUS_FATAL_IF(
        !parseJson(payload, response) || !response.isObject(),
        "serve client: malformed response payload: " + payload);
    return response;
}

void
ServeClient::cancelCall(std::uint64_t streamId)
{
    COPERNICUS_FATAL_IF(fd < 0, "serve client: not connected");
    COPERNICUS_FATAL_IF(!binary,
                        "serve client: cancelCall() requires binary framing");
    const std::string frame =
        encodeFrame(FrameType::Cancel, streamId, "");
    sendAll(frame.data(), frame.size());
}

} // namespace copernicus
