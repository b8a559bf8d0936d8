// Deterministic socket/spool fault sweep (testing/sock_fault.hpp): with
// the Nth server-side I/O operation faulted — short transfer, spurious
// EINTR, connection reset, slow-loris stall, spool corruption — every
// ordinal must end in a completed, reference-identical session or a
// typed per-session error. The daemon itself must survive every one (CI
// runs this binary under ASan/LSan and TSan). The test client speaks raw
// sockets, so only the daemon's util::net operations tick the plan.
#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <string>

#include "serve/daemon.hpp"
#include "serve_test_util.hpp"
#include "testing/sock_fault.hpp"
#include "util/net.hpp"

namespace ftc::serve {
namespace {

namespace fs = std::filesystem;

#if defined(__unix__) || defined(__APPLE__)

using serve_test::http_get;
using serve_test::http_post;
using serve_test::response_body;
using serve_test::response_status;
using util::net::io_fault;

std::string slurp(const fs::path& path) {
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), std::istreambuf_iterator<char>()};
}

serve_options sweep_options() {
    serve_options options;
    options.sessions = 1;
    options.pipeline_threads = 1;
    return options;
}

daemon_options sweep_listener() {
    daemon_options dopt;
    // Short deadlines keep stalled-fault rounds quick; plenty for loopback.
    dopt.limits.io_deadline_ms = 400;
    dopt.io_threads = 1;
    return dopt;
}

/// One full daemon lifetime with the Nth server I/O operation faulted.
/// Returns true when the submission was acknowledged (202).
bool faulted_exchange(const fs::path& dir, const byte_vector& capture,
                      std::uint64_t nth, io_fault kind, const std::string& reference) {
    fs::remove_all(dir);
    spool journal(dir);
    session_manager sessions(journal, sweep_options());
    sessions.start();
    daemon server(job_routes(sessions, nullptr), sweep_listener());

    std::uint64_t job = 0;
    {
        const testing::sock_fault_injector inject =
            testing::sock_fault_injector::fail_nth(nth, kind);
        const std::string response = http_post(server.port(), "/jobs", capture);
        // Reset/stall faults may kill this exchange before the ack — that
        // is the client's problem (it saw the failure); the daemon must
        // just keep serving. A faulted-but-completed exchange must have
        // produced a normal ack.
        if (response_status(response) == 202) {
            job = 1;
        } else {
            EXPECT_TRUE(response.empty() || response_status(response) >= 400)
                << "kind " << static_cast<int>(kind) << " nth " << nth << ": "
                << response;
        }
    }

    sessions.drain();
    // Faults disarmed: the daemon must still answer.
    EXPECT_EQ(response_status(http_get(server.port(), "/healthz")), 200)
        << "daemon dead after kind " << static_cast<int>(kind) << " nth " << nth;
    if (job == 0) {
        return false;
    }
    const std::optional<job_status> status = sessions.status(job);
    EXPECT_TRUE(status.has_value());
    if (status->state == job_state::done) {
        // Completed despite the fault: the retry loops must have healed the
        // transfer completely — the report is the reference, byte for byte.
        EXPECT_EQ(slurp(journal.report_file(job)), reference)
            << "kind " << static_cast<int>(kind) << " nth " << nth;
    } else {
        // The one sanctioned alternative: a typed, journaled, per-job error.
        EXPECT_EQ(status->state, job_state::failed);
        EXPECT_FALSE(status->error.empty());
    }
    return true;
}

TEST(ServeFaults, EverySocketOrdinalHealsOrFailsTyped) {
    const byte_vector capture = serve_test::make_capture_bytes("NTP", 24, 5);
    const fs::path dir = fs::temp_directory_path() / "ftc_serve_faults_sweep";

    // Reference bytes from a fault-free daemon exchange.
    std::string reference;
    {
        fs::remove_all(dir);
        spool journal(dir);
        session_manager sessions(journal, sweep_options());
        sessions.start();
        daemon server(job_routes(sessions, nullptr), sweep_listener());
        ASSERT_EQ(response_status(http_post(server.port(), "/jobs", capture)), 202);
        sessions.drain();
        ASSERT_EQ(sessions.status(1)->state, job_state::done);
        reference = slurp(journal.report_file(1));
        ASSERT_FALSE(reference.empty());
    }

    // A clean exchange performs a handful of socket operations (accept +
    // chunked head/body reads + the response write); sweep past that so
    // beyond-the-exchange ordinals prove the disarmed path too.
    constexpr std::uint64_t kSweep = 12;
    for (const io_fault kind : {io_fault::short_io, io_fault::fake_eintr,
                                io_fault::reset, io_fault::stall}) {
        std::size_t acknowledged = 0;
        for (std::uint64_t nth = 1; nth <= kSweep; ++nth) {
            if (faulted_exchange(dir, capture, nth, kind, reference)) {
                ++acknowledged;
            }
        }
        // Every kind must have let at least one submission through — the
        // benign kinds (short, eintr) all of them.
        EXPECT_GT(acknowledged, 0u) << "kind " << static_cast<int>(kind);
        if (kind == io_fault::short_io || kind == io_fault::fake_eintr) {
            EXPECT_EQ(acknowledged, kSweep) << "kind " << static_cast<int>(kind);
        }
    }
    fs::remove_all(dir);
}

TEST(ServeFaults, SpoolCorruptionIsCaughtByDigestAndFailsTyped) {
    const byte_vector capture = serve_test::make_capture_bytes("DNS", 30, 9);
    const fs::path dir = fs::temp_directory_path() / "ftc_serve_faults_spool";
    fs::remove_all(dir);
    spool journal(dir);
    session_manager sessions(journal, sweep_options());
    sessions.start();
    daemon server(job_routes(sessions, nullptr), sweep_listener());

    // Ordinal 1: the first spool write is corrupted — the session must
    // catch it via the payload digest and fail typed, not analyze rot.
    {
        const testing::sock_fault_injector inject =
            testing::sock_fault_injector::fail_nth(1, io_fault::corrupt_spool);
        ASSERT_EQ(response_status(http_post(server.port(), "/jobs", capture)), 202);
    }
    sessions.drain();
    const std::optional<job_status> corrupted = sessions.status(1);
    ASSERT_TRUE(corrupted.has_value());
    EXPECT_EQ(corrupted->state, job_state::failed);
    EXPECT_NE(corrupted->error.find("digest"), std::string::npos) << corrupted->error;

    // Ordinal beyond the exchange's spool writes: nothing fires, the next
    // job completes normally on the same daemon.
    {
        const testing::sock_fault_injector inject =
            testing::sock_fault_injector::fail_nth(5, io_fault::corrupt_spool);
        ASSERT_EQ(response_status(http_post(server.port(), "/jobs", capture)), 202);
    }
    sessions.drain();
    EXPECT_EQ(sessions.status(2)->state, job_state::done);
    EXPECT_EQ(response_status(http_get(server.port(), "/healthz")), 200);
    fs::remove_all(dir);
}

TEST(ServeFaults, EnvArmingMatchesExplicitPlans) {
    EXPECT_EQ(testing::parse_io_fault_kind("short"), io_fault::short_io);
    EXPECT_EQ(testing::parse_io_fault_kind("eintr"), io_fault::fake_eintr);
    EXPECT_EQ(testing::parse_io_fault_kind("reset"), io_fault::reset);
    EXPECT_EQ(testing::parse_io_fault_kind("stall"), io_fault::stall);
    EXPECT_EQ(testing::parse_io_fault_kind("corrupt-spool"), io_fault::corrupt_spool);
    EXPECT_THROW(testing::parse_io_fault_kind("bogus"), ftc::error);
}

#endif  // unix

}  // namespace
}  // namespace ftc::serve
