#include "serve/daemon.hpp"

#include "obs/export.hpp"
#include "obs/obs.hpp"
#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/net.hpp"

namespace ftc::serve {

namespace {

/// Parse "/jobs/<digits>[/report]" — returns false for anything else.
bool parse_job_target(std::string_view target, std::uint64_t& id, bool& want_report) {
    constexpr std::string_view kPrefix = "/jobs/";
    if (target.rfind(kPrefix, 0) != 0) {
        return false;
    }
    target.remove_prefix(kPrefix.size());
    want_report = false;
    constexpr std::string_view kReport = "/report";
    if (target.size() > kReport.size() &&
        target.compare(target.size() - kReport.size(), kReport.size(), kReport) == 0) {
        want_report = true;
        target.remove_suffix(kReport.size());
    }
    if (target.empty() || target.size() > 19) {
        return false;
    }
    std::uint64_t value = 0;
    for (char c : target) {
        if (c < '0' || c > '9') {
            return false;
        }
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    id = value;
    return true;
}

std::string error_json(std::string_view reason) {
    obs::json_writer w;
    w.begin_object();
    w.key("error");
    w.value(reason);
    w.end_object();
    return w.take();
}

std::string status_json(const job_status& status) {
    obs::json_writer w;
    w.begin_object();
    w.key("job");
    w.value(status.id);
    w.key("state");
    w.value(job_state_name(status.state));
    w.key("degraded");
    w.value(status.degraded);
    w.key("recovered");
    w.value(status.recovered);
    if (!status.error.empty()) {
        w.key("error");
        w.value(std::string_view{status.error});
    }
    w.end_object();
    return w.take();
}

void write_metrics(int fd, const obs::recorder& recorder, const http_limits& limits) {
    write_response(fd, 200, "text/plain; version=0.0.4",
                   obs::to_prometheus(recorder.metrics().snapshot()), {},
                   limits.io_deadline_ms);
}

void answer_job_request(session_manager& sessions, const obs::recorder* recorder, int fd,
                        const http_limits& limits) {
    const auto respond_json =
        [&](int status, const std::string& body,
            const std::vector<std::pair<std::string, std::string>>& extra = {}) {
            if (status >= 400) {
                obs::counter_add("serve.http_errors_total", 1.0);
            }
            write_response(fd, status, "application/json", body, extra, limits.io_deadline_ms);
        };
    http_request request;
    const read_status rs = read_request(fd, limits, request);
    obs::counter_add("serve.requests_total", 1.0);
    switch (rs) {
        case read_status::ok:
            break;
        case read_status::bad_request:
            respond_json(400, error_json("malformed request"));
            return;
        case read_status::too_large:
            respond_json(413, error_json("request exceeds configured limits"));
            return;
        default:
            // eof / timeout / reset: the peer is gone or stalled; there is
            // nobody left worth writing an error to.
            obs::counter_add("serve.http_errors_total", 1.0);
            return;
    }

    if (request.method == "POST" && request.target == "/jobs") {
        const admission verdict = sessions.submit(
            byte_view{request.body.data(), request.body.size()});
        if (!verdict.accepted) {
            respond_json(
                503, error_json(verdict.reason),
                {{"Retry-After",
                  std::to_string(sessions.options().retry_after_seconds)}});
            return;
        }
        obs::json_writer w;
        w.begin_object();
        w.key("job");
        w.value(verdict.id);
        w.key("state");
        w.value("queued");
        w.end_object();
        respond_json(202, w.take());
        return;
    }

    std::uint64_t id = 0;
    bool want_report = false;
    if (parse_job_target(request.target, id, want_report)) {
        if (request.method != "GET") {
            respond_json(405, error_json("use GET"));
            return;
        }
        const std::optional<job_status> status = sessions.status(id);
        if (!status.has_value()) {
            respond_json(404, error_json("unknown job"));
            return;
        }
        if (!want_report) {
            respond_json(200, status_json(*status));
            return;
        }
        if (status->state != job_state::done) {
            respond_json(409, status_json(*status));
            return;
        }
        byte_vector report;
        try {
            report = util::read_file(sessions.journal().report_file(id));
        } catch (const ftc::error&) {
            respond_json(404, error_json("report file missing"));
            return;
        }
        const std::string_view text{reinterpret_cast<const char*>(report.data()), report.size()};
        write_response(fd, 200, "text/plain; charset=utf-8", text, {}, limits.io_deadline_ms);
        return;
    }

    if (request.method == "GET" && request.target == "/healthz") {
        obs::json_writer w;
        w.begin_object();
        w.key("status");
        w.value("ok");
        w.key("queue");
        w.value(static_cast<std::uint64_t>(sessions.queued()));
        w.key("active");
        w.value(static_cast<std::uint64_t>(sessions.active()));
        w.key("pressure");
        w.value(static_cast<std::int64_t>(sessions.pressure_level()));
        w.end_object();
        respond_json(200, w.take());
        return;
    }

    if (request.method == "GET" && request.target == "/metrics") {
        if (recorder == nullptr) {
            respond_json(404, error_json("metrics recorder not enabled"));
            return;
        }
        write_metrics(fd, *recorder, limits);
        return;
    }

    respond_json(404, error_json("no such endpoint"));
}

}  // namespace

routes job_routes(session_manager& sessions, const obs::recorder* recorder) {
    return std::bind_front(answer_job_request, std::ref(sessions), recorder);
}

routes metrics_routes(const obs::recorder& recorder) {
    return [&recorder](int fd, const http_limits& limits) {
        http_request request;
        if (read_request(fd, limits, request) != read_status::ok) {
            return;
        }
        if (request.method == "GET" && request.target == "/metrics") {
            write_metrics(fd, recorder, limits);
            return;
        }
        write_response(fd, 404, "application/json", error_json("no such endpoint"), {},
                       limits.io_deadline_ms);
    };
}

daemon::daemon(routes r, daemon_options options)
    : routes_(std::move(r)), options_(std::move(options)) {
    listen_fd_ = util::net::listen_tcp(options_.listen.host, options_.listen.port, 16, &port_,
                                       "listen");
    if (options_.io_threads == 0) {
        options_.io_threads = 1;
    }
    io_threads_.reserve(options_.io_threads);
    for (std::size_t i = 0; i < options_.io_threads; ++i) {
        io_threads_.emplace_back([this] { io_loop(); });
    }
}

daemon::~daemon() { stop(); }

void daemon::stop() noexcept {
    if (stopping_.exchange(true, std::memory_order_relaxed)) {
        return;
    }
    for (std::thread& t : io_threads_) {
        if (t.joinable()) {
            t.join();
        }
    }
    io_threads_.clear();
    util::net::close_fd(listen_fd_);
    listen_fd_ = -1;
}

void daemon::io_loop() {
    while (!stopping_.load(std::memory_order_relaxed)) {
        const int client = util::net::accept_client(listen_fd_, 200);
        if (client < 0) {
            continue;  // timeout or transient accept error: keep serving
        }
        // One connection is one bounded request/response exchange; any
        // exception is a that-connection problem, never the daemon's.
        try {
            routes_(client, options_.limits);
        } catch (const std::exception&) {
            obs::counter_add("serve.http_errors_total", 1.0);
        }
        requests_.fetch_add(1, std::memory_order_relaxed);
        util::net::close_fd(client);
    }
}

}  // namespace ftc::serve
