/// \file daemon.hpp
/// The one HTTP stack of ftclust (ftc::serve::daemon): a small pool of I/O
/// threads accepts local HTTP/1.0 connections and hands each one to a
/// routes function. Two route sets exist. job_routes is the front door of
/// `ftclust serve`, routed onto the session manager:
///
///   POST /jobs              submit a capture (body = pcap bytes)
///                           202 {"job": id}  — journaled before the ack
///                           503 {"error": reason} + Retry-After when shed
///   GET  /jobs/<id>         job status JSON (404 for unknown ids)
///   GET  /jobs/<id>/report  the finished analyst report
///                           (409 while queued/running, 404 unknown)
///   GET  /healthz           {"status","queue","active","pressure"}
///   GET  /metrics           Prometheus text exposition (404 when the
///                           daemon runs without a metrics recorder)
///
/// metrics_routes answers `GET /metrics` alone (404 for any other
/// request); `ftclust run --metrics-listen` serves it while a run lasts.
///
/// Every connection is bounded: head and body caps, one deadline for the
/// whole request head (slow-loris defense), deadline-bounded writes. A
/// misbehaving client costs one connection, never a worker session. The
/// daemon never exits on a connection error; stop() (or destruction)
/// closes the listener and joins the I/O threads.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "serve/http.hpp"
#include "serve/session.hpp"
#include "util/net.hpp"

namespace ftc::obs {
class recorder;
}  // namespace ftc::obs

namespace ftc::serve {

/// Listener configuration; session behavior lives in serve_options.
struct daemon_options {
    util::net::listen_address listen{"127.0.0.1", 0};  ///< port 0 = ephemeral, see port()
    std::size_t io_threads = 2;
    http_limits limits;  ///< handed to the routes with every connection
};

/// One connection's exchange: read the request from \p fd under \p limits
/// and write the response. The daemon closes \p fd afterwards.
using routes = std::function<void(int fd, const http_limits& limits)>;

/// The serve job API above over \p sessions; \p recorder (may be
/// nullptr) backs GET /metrics. Both must outlive the daemon.
routes job_routes(session_manager& sessions, const obs::recorder* recorder);

/// GET /metrics over \p recorder, which must outlive the daemon.
routes metrics_routes(const obs::recorder& recorder);

class daemon {
public:
    /// Binds the listener (throws ftc::error on failure) and starts the
    /// I/O threads, each running \p r on the connections it accepts.
    daemon(routes r, daemon_options options);
    ~daemon();

    daemon(const daemon&) = delete;
    daemon& operator=(const daemon&) = delete;

    std::uint16_t port() const { return port_; }
    /// Connections answered so far.
    std::uint64_t requests_served() const {
        return requests_.load(std::memory_order_relaxed);
    }

    /// Stop accepting, close the listener, join the I/O threads. Idempotent.
    void stop() noexcept;

private:
    void io_loop();

    routes routes_;
    daemon_options options_;
    int listen_fd_ = -1;
    std::uint16_t port_ = 0;
    std::atomic<bool> stopping_{false};
    std::atomic<std::uint64_t> requests_{0};
    std::vector<std::thread> io_threads_;
};

}  // namespace ftc::serve
