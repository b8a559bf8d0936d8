// The bounded HTTP/1.0 reader/writer: framing, strict Content-Length,
// size caps, slow-loris deadlines and short-write recovery — each over a
// real socketpair so the util::net retry loops run for real.
#include <gtest/gtest.h>

#include <string>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#include <poll.h>
#include <sys/socket.h>
#include <unistd.h>
#endif

#include "serve/http.hpp"

namespace ftc::serve {
namespace {

#if defined(__unix__) || defined(__APPLE__)

/// RAII AF_UNIX stream pair: fds[0] = test side, fds[1] = server side.
struct sock_pair {
    int fds[2] = {-1, -1};
    sock_pair() { EXPECT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0); }
    ~sock_pair() {
        close_client();
        ::close(fds[1]);
    }
    void close_client() {
        if (fds[0] >= 0) {
            ::close(fds[0]);
            fds[0] = -1;
        }
    }
    void send_text(std::string_view text) {
        ASSERT_EQ(::send(fds[0], text.data(), text.size(), 0),
                  static_cast<ssize_t>(text.size()));
    }
};

TEST(ServeHttp, ParsesRequestLineHeadersAndBody) {
    sock_pair pair;
    pair.send_text("POST /jobs HTTP/1.0\r\nContent-Length: 5\r\nX-Label:  trimmed \r\n"
                   "\r\nhello");
    http_request request;
    ASSERT_EQ(read_request(pair.fds[1], http_limits{}, request), read_status::ok);
    EXPECT_EQ(request.method, "POST");
    EXPECT_EQ(request.target, "/jobs");
    ASSERT_EQ(request.headers.size(), 2u);
    EXPECT_EQ(request.headers[0].first, "content-length");  // lowercased
    EXPECT_EQ(request.headers[1].first, "x-label");
    EXPECT_EQ(request.headers[1].second, "trimmed");
    ASSERT_NE(find_header(request, "x-label"), nullptr);
    EXPECT_EQ(std::string(request.body.begin(), request.body.end()), "hello");
}

TEST(ServeHttp, BodySplitAcrossSegmentsIsReassembled) {
    sock_pair pair;
    std::thread writer([&] {
        pair.send_text("POST /jobs HTTP/1.0\r\nContent-Length: 10\r\n\r\n12");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        pair.send_text("34567");
        std::this_thread::sleep_for(std::chrono::milliseconds(20));
        pair.send_text("890");
    });
    http_request request;
    EXPECT_EQ(read_request(pair.fds[1], http_limits{}, request), read_status::ok);
    EXPECT_EQ(std::string(request.body.begin(), request.body.end()), "1234567890");
    writer.join();
}

TEST(ServeHttp, MalformedFramingIsBadRequest) {
    const char* cases[] = {
        "GARBAGE\r\n\r\n",                                  // no method/target
        "GET /x HTTP/1.0\r\nNoColonHere\r\n\r\n",           // bad header
        "GET /x HTTP/1.0\r\nContent-Length: -3\r\n\r\n",    // signed length
        "GET /x HTTP/1.0\r\nContent-Length: 1e3\r\n\r\n",   // non-digit length
        "GET /x FTP/9.9\r\n\r\n",                           // wrong protocol
    };
    for (const char* text : cases) {
        sock_pair pair;
        pair.send_text(text);
        pair.close_client();
        http_request request;
        EXPECT_EQ(read_request(pair.fds[1], http_limits{}, request),
                  read_status::bad_request)
            << text;
    }
}

TEST(ServeHttp, OversizedHeadAndBodyAreTooLarge) {
    http_limits limits;
    limits.max_head_bytes = 64;
    {
        sock_pair pair;
        pair.send_text("GET /" + std::string(100, 'x') + " HTTP/1.0\r\n\r\n");
        http_request request;
        EXPECT_EQ(read_request(pair.fds[1], limits, request), read_status::too_large);
    }
    limits = http_limits{};
    limits.max_body_bytes = 8;
    // Announcing more than the cap is refused before any body read, and
    // a client waiting on Expect: 100-continue gets no go-ahead first.
    for (const char* head : {"POST /jobs HTTP/1.0\r\nContent-Length: 9\r\n\r\n",
                             "POST /jobs HTTP/1.1\r\nContent-Length: 9\r\n"
                             "Expect: 100-continue\r\n\r\n"}) {
        sock_pair pair;
        pair.send_text(head);
        http_request request;
        EXPECT_EQ(read_request(pair.fds[1], limits, request), read_status::too_large);
        char c = 0;
        EXPECT_EQ(::recv(pair.fds[0], &c, 1, MSG_DONTWAIT), -1) << head;  // nothing written
    }
}

TEST(ServeHttp, SlowLorisTimesOutOnTheSharedHeadDeadline) {
    http_limits limits;
    limits.io_deadline_ms = 120;
    sock_pair pair;
    std::thread dribbler([&] {
        // One byte per poll interval, forever below the deadline's rate.
        const std::string head = "GET /healthz HTTP/1.0\r\n";
        for (char c : head) {
            ::send(pair.fds[0], &c, 1, 0);
            std::this_thread::sleep_for(std::chrono::milliseconds(40));
        }
    });
    http_request request;
    EXPECT_EQ(read_request(pair.fds[1], limits, request), read_status::timeout);
    dribbler.join();
}

TEST(ServeHttp, ExpectContinueGetsInterimResponseBeforeBody) {
    sock_pair pair;
    std::string interim;
    std::thread client([&] {
        pair.send_text("POST /jobs HTTP/1.1\r\nContent-Length: 5\r\n"
                       "Expect: 100-continue\r\n\r\n");
        // Like curl -T: hold the body back until the go-ahead, or until a
        // bounded wait gives up on it.
        pollfd pfd{pair.fds[0], POLLIN, 0};
        if (::poll(&pfd, 1, 2000) == 1) {
            char buf[64];
            const ssize_t n = ::recv(pair.fds[0], buf, sizeof buf, 0);
            if (n > 0) {
                interim.assign(buf, static_cast<std::size_t>(n));
            }
        }
        pair.send_text("hello");
    });
    http_request request;
    EXPECT_EQ(read_request(pair.fds[1], http_limits{}, request), read_status::ok);
    client.join();
    EXPECT_EQ(interim, "HTTP/1.1 100 Continue\r\n\r\n");
    EXPECT_EQ(std::string(request.body.begin(), request.body.end()), "hello");
}

TEST(ServeHttp, PeerDisappearingMidBodyIsEof) {
    sock_pair pair;
    pair.send_text("POST /jobs HTTP/1.0\r\nContent-Length: 100\r\n\r\nonly this");
    pair.close_client();
    http_request request;
    EXPECT_EQ(read_request(pair.fds[1], http_limits{}, request), read_status::eof);
}

TEST(ServeHttp, WriteResponseFramesStatusHeadersAndBody) {
    sock_pair pair;
    EXPECT_TRUE(write_response(pair.fds[1], 503, "application/json", "{\"error\":\"x\"}",
                               {{"Retry-After", "7"}}, 1000));
    ::shutdown(pair.fds[1], SHUT_WR);
    std::string response;
    char buf[1024];
    ssize_t n;
    while ((n = ::recv(pair.fds[0], buf, sizeof buf, 0)) > 0) {
        response.append(buf, static_cast<std::size_t>(n));
    }
    EXPECT_EQ(response.rfind("HTTP/1.0 503 Service Unavailable\r\n", 0), 0u) << response;
    EXPECT_NE(response.find("Content-Length: 13\r\n"), std::string::npos);
    EXPECT_NE(response.find("Retry-After: 7\r\n"), std::string::npos);
    EXPECT_NE(response.find("Connection: close\r\n"), std::string::npos);
    EXPECT_NE(response.find("\r\n\r\n{\"error\":\"x\"}"), std::string::npos);
}

TEST(ServeHttp, WriteToClosedPeerReportsFailureNotSignal) {
    sock_pair pair;
    pair.close_client();
    // MSG_NOSIGNAL path: the dead peer is a return value, not SIGPIPE.
    EXPECT_FALSE(write_response(pair.fds[1], 200, "text/plain",
                                std::string(1 << 16, 'a'), {}, 200));
}

#endif  // unix

TEST(ServeHttp, StatusReasonsCoverEmittedCodes) {
    EXPECT_EQ(status_reason(200), "OK");
    EXPECT_EQ(status_reason(202), "Accepted");
    EXPECT_EQ(status_reason(400), "Bad Request");
    EXPECT_EQ(status_reason(404), "Not Found");
    EXPECT_EQ(status_reason(405), "Method Not Allowed");
    EXPECT_EQ(status_reason(409), "Conflict");
    EXPECT_EQ(status_reason(413), "Payload Too Large");
    EXPECT_EQ(status_reason(503), "Service Unavailable");
    EXPECT_EQ(status_reason(599), "Error");
}

}  // namespace
}  // namespace ftc::serve
