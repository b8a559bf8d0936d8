/// \file fault_plan.hpp
/// Deterministic fault injection: one scoped installer for the
/// process-global fault plans of ftc::mem (tracked allocations) and
/// ftc::util::net (socket operations and serve spool writes).
///
/// The memory-governance contract says every pipeline stage either
/// completes, degrades, or exits with a typed error when an allocation
/// fails; the serve daemon's contract says every connection and session
/// either completes with reference-identical output or unwinds with a
/// typed per-session error. Those contracts are only worth stating if they
/// can be *driven*: a plan makes the Nth tracked allocation (or every one
/// past a byte high-water mark) throw ftc::memory_budget_exceeded_error,
/// or the Nth tracked I/O operation observe a short transfer, a simulated
/// EINTR, a peer reset, a stalled deadline or spool corruption, at exactly
/// the site a real failure would. Tests sweep N across a run and prove the
/// unwinding path from every site (tests/test_mem_faults.cpp,
/// tests/test_serve_faults.cpp). Determinism: tracked allocation sites are
/// coarse coordinator-thread allocations, and an I/O countdown only ticks
/// on operations in its fault kind's domain, so the same run hits the same
/// ordinals in the same order.
#pragma once

#include "mem/mem.hpp"
#include "util/net.hpp"

namespace ftc::testing {

/// The get/set pair of a plan type's process-global slot.
template <typename Plan>
struct plan_slot;

template <>
struct plan_slot<mem::fault_plan> {
    static mem::fault_plan get() noexcept { return mem::get_fault_plan(); }
    static void set(const mem::fault_plan& plan) noexcept { mem::set_fault_plan(plan); }
};

template <>
struct plan_slot<util::net::io_fault_plan> {
    static util::net::io_fault_plan get() noexcept { return util::net::get_io_fault_plan(); }
    static void set(const util::net::io_fault_plan& plan) noexcept {
        util::net::set_io_fault_plan(plan);
    }
};

/// RAII installer of a fault plan; restores the previous plan (usually
/// none) on destruction so a throwing test cannot poison its neighbours.
///   const testing::scoped_plan inject{mem::fault_plan{.fail_nth = 3}};
template <typename Plan>
class scoped_plan {
public:
    explicit scoped_plan(const Plan& plan) : previous_(plan_slot<Plan>::get()) {
        plan_slot<Plan>::set(plan);
    }

    ~scoped_plan() { plan_slot<Plan>::set(previous_); }

    scoped_plan(const scoped_plan&) = delete;
    scoped_plan& operator=(const scoped_plan&) = delete;

private:
    Plan previous_;
};

/// Arm the process-wide allocation fault plan from the environment:
///   FTC_ALLOC_FAIL_NTH=N          fail the Nth tracked allocation
///   FTC_ALLOC_FAIL_ABOVE_BYTES=B  fail tracked allocations past B bytes
/// Returns true when a plan was armed. The CLI calls this at startup so CI
/// can smoke-test the full binary's unwinding path without a special build.
/// Values must parse strictly (util/parse.hpp); a malformed value throws.
bool arm_alloc_faults_from_env();

/// Parse a fault-kind name ("short" | "eintr" | "reset" | "stall" |
/// "corrupt-spool"); throws ftc::error on anything else.
util::net::io_fault parse_io_fault_kind(const char* name);

/// Arm the process-wide I/O fault plan from the environment:
///   FTC_SOCK_FAIL_NTH=N      fault the Nth tracked operation
///   FTC_SOCK_FAIL_KIND=KIND  short | eintr | reset | stall | corrupt-spool
///                            (default reset)
/// Same contract as arm_alloc_faults_from_env().
bool arm_sock_faults_from_env();

}  // namespace ftc::testing
