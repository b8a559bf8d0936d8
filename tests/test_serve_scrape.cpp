// The --metrics-listen scrape endpoint: the serve daemon's accept loop
// running metrics_routes. Address parsing, end-to-end HTTP GETs over a
// real socket against an ephemeral port, 404 for every other request, and
// clean idempotent shutdown. The registry is poked directly (recorder
// exists even under FTC_OBS_DISABLE), so the suite runs on every build.
#include <gtest/gtest.h>

#include <string>

#include "obs/obs.hpp"
#include "serve/daemon.hpp"
#include "serve_test_util.hpp"
#include "util/error.hpp"
#include "util/net.hpp"

namespace ftc::serve {
namespace {

using util::net::listen_address;
using util::net::parse_listen_address;

TEST(ServeScrape, ParseListenAddress) {
    const listen_address a = parse_listen_address("127.0.0.1:9464");
    EXPECT_EQ(a.host, "127.0.0.1");
    EXPECT_EQ(a.port, 9464);
    const listen_address local = parse_listen_address("localhost:0");
    EXPECT_EQ(local.host, "127.0.0.1");
    EXPECT_EQ(local.port, 0);

    EXPECT_THROW(parse_listen_address("no-port"), ftc::error);
    EXPECT_THROW(parse_listen_address(":123"), ftc::error);
    EXPECT_THROW(parse_listen_address("host:"), ftc::error);
    EXPECT_THROW(parse_listen_address("h:65536"), ftc::error);
    EXPECT_THROW(parse_listen_address("h:abc"), ftc::error);
}

#if defined(__unix__) || defined(__APPLE__)

using serve_test::http_exchange;
using serve_test::http_get;
using serve_test::response_status;

daemon_options at(const listen_address& address) {
    daemon_options options;
    options.listen = address;
    options.io_threads = 1;
    return options;
}

TEST(ServeScrape, ServesPrometheusText) {
    obs::scoped_recorder recorder;
    recorder.rec().metrics().add("pcap.datagrams_total", 42.0);
    daemon server(metrics_routes(recorder.rec()), at(parse_listen_address("127.0.0.1:0")));
    ASSERT_GT(server.port(), 0);  // ephemeral port resolved

    const std::string response = http_get(server.port(), "/metrics");
    EXPECT_EQ(response.rfind("HTTP/1.0 200 OK", 0), 0u) << response;
    EXPECT_NE(response.find("Content-Type: text/plain"), std::string::npos);
    EXPECT_NE(response.find("# TYPE ftc_pcap_datagrams_total counter"),
              std::string::npos);
    EXPECT_NE(response.find("# HELP ftc_pcap_datagrams_total"), std::string::npos);
    EXPECT_NE(response.find("ftc_pcap_datagrams_total 42"), std::string::npos);
}

TEST(ServeScrape, ServesLiveUpdatesAcrossRequests) {
    obs::scoped_recorder recorder;
    daemon server(metrics_routes(recorder.rec()), at(parse_listen_address("localhost:0")));
    recorder.rec().metrics().add("cluster.dbscan_runs_total", 1.0);
    const std::string first = http_get(server.port(), "/metrics");
    EXPECT_NE(first.find("ftc_cluster_dbscan_runs_total 1"), std::string::npos);
    recorder.rec().metrics().add("cluster.dbscan_runs_total", 2.0);
    const std::string second = http_get(server.port(), "/metrics");
    EXPECT_NE(second.find("ftc_cluster_dbscan_runs_total 3"), std::string::npos);
    EXPECT_GE(server.requests_served(), 2u);
}

TEST(ServeScrape, AnswersOnlyGetMetrics) {
    obs::scoped_recorder recorder;
    recorder.rec().metrics().add("pcap.datagrams_total", 1.0);
    daemon server(metrics_routes(recorder.rec()), at(parse_listen_address("127.0.0.1:0")));
    for (const char* target : {"/", "/metric", "/metrics/", "/jobs", "/healthz"}) {
        const std::string response = http_get(server.port(), target);
        EXPECT_EQ(response_status(response), 404) << target;
        EXPECT_EQ(response.find("ftc_pcap_datagrams_total"), std::string::npos) << target;
    }
    EXPECT_EQ(response_status(http_exchange(
                  server.port(), "POST /metrics HTTP/1.0\r\nContent-Length: 0\r\n\r\n")),
              404);
    // And the endpoint still serves afterwards.
    EXPECT_EQ(response_status(http_get(server.port(), "/metrics")), 200);
}

TEST(ServeScrape, StopIsIdempotentAndReleasesPort) {
    obs::scoped_recorder recorder;
    daemon server(metrics_routes(recorder.rec()), at(parse_listen_address("127.0.0.1:0")));
    const std::uint16_t port = server.port();
    server.stop();
    server.stop();  // and the destructor makes a third call
    // The port is free again: a new server can bind it right away.
    daemon again(metrics_routes(recorder.rec()), at(listen_address{"127.0.0.1", port}));
    EXPECT_EQ(again.port(), port);
}

TEST(ServeScrape, BindFailureThrows) {
    obs::scoped_recorder recorder;
    daemon holder(metrics_routes(recorder.rec()), at(parse_listen_address("127.0.0.1:0")));
    // SO_REUSEADDR does not allow two live listeners on one port.
    EXPECT_THROW(daemon(metrics_routes(recorder.rec()),
                        at(listen_address{"127.0.0.1", holder.port()})),
                 ftc::error);
    EXPECT_THROW(daemon(metrics_routes(recorder.rec()), at(listen_address{"999.1.1.1", 0})),
                 ftc::error);
}

#endif  // unix

}  // namespace
}  // namespace ftc::serve
