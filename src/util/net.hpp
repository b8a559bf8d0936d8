/// \file net.hpp
/// Hardened POSIX socket primitives shared by every network-facing surface
/// (the serve daemon's accept loop, which also runs the --metrics-listen
/// scrape endpoint).
///
/// Raw send()/recv() have three classic failure modes a long-lived daemon
/// must survive: EINTR (any signal interrupts the syscall), partial
/// transfers (the kernel moves fewer bytes than asked), and peers that
/// stall forever (slow-loris). Every helper here owns all three:
///
///  - read_some / write_all retry EINTR transparently, loop over partial
///    transfers, and bound every wait with a poll deadline, so a caller
///    states its per-operation patience once and never sees a torn
///    transfer or an unbounded block;
///  - listen_tcp sets SO_REUSEADDR (a restarted daemon rebinds through
///    TIME_WAIT), FD_CLOEXEC (no fd leaks into spawned children) and
///    O_NONBLOCK (several accept loops may share one listener) on the
///    listener, and accept_client stamps FD_CLOEXEC on every accepted fd;
///  - all outcomes are values (io_result), never errno spelunking at call
///    sites: ok, eof, timeout, reset.
///
/// Deterministic fault injection: every tracked operation (accept, recv,
/// send, spool write) consults a process-global fault plan before touching
/// the kernel, mirroring ftc::mem's allocation faults. The plan makes the
/// Nth operation of the targeted domain observe a short transfer, a
/// simulated EINTR, a peer reset, or a stalled deadline — so tests can
/// sweep N across a session and prove every failure path unwinds typed
/// (ftc::testing::scoped_plan is the RAII front end).
#pragma once

#include <cstddef>
#include <cstdint>
#include <string>

namespace ftc::util::net {

// ---------------------------------------------------------------------------
// Fault injection (see ftc::testing::scoped_plan)
// ---------------------------------------------------------------------------

/// The operation domains the fault plan can target.
enum class io_op {
    accept_op,  ///< accept_client
    recv_op,    ///< read_some
    send_op,    ///< write_all
    spool_op,   ///< serve spool journal writes (disk, not socket)
};

/// What the injected fault makes the targeted operation observe.
enum class io_fault {
    none,
    short_io,      ///< move at most one byte this round (retry loops must cope)
    fake_eintr,    ///< one simulated EINTR loop-around (retry must exist)
    reset,         ///< peer reset / connection gone
    stall,         ///< the deadline expires without progress (slow-loris)
    corrupt_spool, ///< flip a byte in the just-journaled spool file
};

/// Deterministic I/O fault plan; fail_nth 0 means "disabled". The countdown
/// only decrements on operations in the fault kind's domain (corrupt_spool
/// counts spool_op writes, every other kind counts socket operations), so a
/// sweep over N is deterministic per kind.
struct io_fault_plan {
    std::uint64_t fail_nth = 0;
    io_fault kind = io_fault::none;

    bool armed() const noexcept { return fail_nth > 0 && kind != io_fault::none; }
};

/// Install (or, with a default-constructed plan, clear) the process-global
/// I/O fault plan. The countdown restarts at every install.
void set_io_fault_plan(const io_fault_plan& plan) noexcept;

/// The currently installed plan (countdown state included).
io_fault_plan get_io_fault_plan() noexcept;

/// Consult the plan for one tracked operation: counts it, and returns the
/// fault the operation must observe (io_fault::none almost always). The
/// socket helpers call this internally; the serve spool calls it with
/// spool_op around journal writes.
io_fault consume_io_fault(io_op op) noexcept;

// ---------------------------------------------------------------------------
// Socket primitives
// ---------------------------------------------------------------------------

/// Outcome of one bounded I/O operation.
struct io_result {
    enum class status {
        ok,       ///< n bytes moved (write_all: all of them)
        eof,      ///< orderly shutdown from the peer (reads only)
        timeout,  ///< the poll deadline expired without progress
        reset,    ///< connection reset / broken pipe / unexpected error
    };
    status st = status::ok;
    std::size_t n = 0;  ///< bytes moved before the status applied

    bool ok() const noexcept { return st == status::ok; }
};

/// A parsed "HOST:PORT" listen spec.
struct listen_address {
    std::string host;
    std::uint16_t port = 0;
};

/// Parse "HOST:PORT" (e.g. "127.0.0.1:9464", "0.0.0.0:0"); throws
/// ftc::error on a malformed address. "localhost" maps to 127.0.0.1.
listen_address parse_listen_address(const std::string& spec);

/// Create, bind and listen on an IPv4 TCP socket. SO_REUSEADDR, FD_CLOEXEC
/// and O_NONBLOCK are set on the fd; port 0 binds an ephemeral port and
/// \p bound_port (if non-null) receives the port actually bound. Throws
/// ftc::error naming \p what on any failure.
int listen_tcp(const std::string& host, std::uint16_t port, int backlog,
               std::uint16_t* bound_port, const char* what);

/// Accept one client with a bounded poll wait. Returns the accepted fd
/// (FD_CLOEXEC set, blocking) or -1 on timeout/transient error — callers
/// loop around a stop flag. EINTR is retried within the deadline; EAGAIN
/// (another loop polling the same listener won the connection) is "no
/// client", never a block.
int accept_client(int listen_fd, int timeout_ms) noexcept;

/// Read up to \p cap bytes within \p timeout_ms. EINTR and spurious
/// wakeups are retried inside the deadline; a peer reset maps to
/// status::reset, an orderly close to status::eof.
io_result read_some(int fd, void* buf, std::size_t cap, int timeout_ms) noexcept;

/// Write all \p len bytes within \p timeout_ms, looping over partial
/// send()s and EINTR. SIGPIPE is suppressed (MSG_NOSIGNAL); a vanished
/// peer maps to status::reset with the byte count that made it out.
io_result write_all(int fd, const void* buf, std::size_t len, int timeout_ms) noexcept;

/// close() the fd, retrying EINTR; no-op for negative fds.
void close_fd(int fd) noexcept;

}  // namespace ftc::util::net
