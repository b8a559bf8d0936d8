#include "mem/mem.hpp"

#include <algorithm>
#include <atomic>

#include "obs/obs.hpp"
#include "util/check.hpp"

namespace ftc::mem {

namespace {

// Global accounting. Relaxed ordering everywhere: the counters are
// monotonic tallies consumed for reporting and budget checks, never for
// synchronization; budget enforcement tolerates the (single-charge-sized)
// windows concurrent charges open, because the tracked sites are coarse
// container allocations, not per-element traffic.
std::atomic<std::uint64_t> g_current{0};
std::atomic<std::uint64_t> g_peak{0};
std::atomic<std::uint64_t> g_allocs{0};

// Fault plan. The plan fields change only from set_fault_plan (tests, CLI
// startup); the countdown is decremented from charge sites.
std::atomic<std::uint64_t> g_fail_countdown{0};
std::atomic<std::uint64_t> g_fail_above{0};

// Innermost governor of the *calling thread*. Thread-local rather than
// process-global: the serve daemon runs concurrent sessions on separate
// worker threads, each under its own nested governor, and a shared pointer
// stack would interleave their install/restore pairs. Tracked charges are
// coarse coordinator-thread allocations (see testing/fault_plan.hpp), so
// the thread that installs a governor is the thread whose charges it must
// govern; cross-thread ceilings are the admission controller's job.
thread_local governor* t_governor = nullptr;

// Gauge publication throttle: publish only when the peak grows past the
// last published value by at least this step, so a charge-heavy run does
// not hammer the (mutexed) gauge path of the obs registry.
constexpr std::uint64_t kGaugeStep = 256 * 1024;
std::atomic<std::uint64_t> g_last_published_peak{0};

void publish(std::uint64_t current, std::uint64_t peak) noexcept {
    obs::gauge_set("mem.tracked_bytes", static_cast<double>(current));
    obs::gauge_set("mem.tracked_bytes_peak", static_cast<double>(peak));
}

/// Raise the peak to at least \p candidate; returns the resulting peak.
std::uint64_t raise_peak(std::uint64_t candidate) noexcept {
    std::uint64_t seen = g_peak.load(std::memory_order_relaxed);
    while (candidate > seen &&
           !g_peak.compare_exchange_weak(seen, candidate, std::memory_order_relaxed)) {
    }
    return std::max(candidate, seen);
}

}  // namespace

std::uint64_t current_bytes() noexcept { return g_current.load(std::memory_order_relaxed); }

std::uint64_t peak_bytes() noexcept { return g_peak.load(std::memory_order_relaxed); }

std::uint64_t tracked_allocations() noexcept {
    return g_allocs.load(std::memory_order_relaxed);
}

void reset_peak() noexcept {
    const std::uint64_t now = g_current.load(std::memory_order_relaxed);
    g_peak.store(now, std::memory_order_relaxed);
    g_last_published_peak.store(now, std::memory_order_relaxed);
}

void publish_gauges() noexcept {
    const std::uint64_t current = g_current.load(std::memory_order_relaxed);
    const std::uint64_t peak = g_peak.load(std::memory_order_relaxed);
    g_last_published_peak.store(peak, std::memory_order_relaxed);
    publish(current, peak);
    obs::counter_add("mem.tracked_allocs_total", 0.0);  // materialize the series
}

void set_fault_plan(const fault_plan& plan) noexcept {
    g_fail_countdown.store(plan.fail_nth, std::memory_order_relaxed);
    g_fail_above.store(plan.fail_above_bytes, std::memory_order_relaxed);
}

fault_plan get_fault_plan() noexcept {
    fault_plan plan;
    plan.fail_nth = g_fail_countdown.load(std::memory_order_relaxed);
    plan.fail_above_bytes = g_fail_above.load(std::memory_order_relaxed);
    return plan;
}

governor::governor(std::uint64_t limit_bytes) noexcept : limit_(limit_bytes) {
    previous_ = t_governor;
    t_governor = this;
}

governor::~governor() { t_governor = previous_; }

bool governor::would_exceed(std::uint64_t extra) const noexcept {
    return limit_ > 0 && current_bytes() + extra > limit_;
}

governor* governor::active() noexcept { return t_governor; }

void on_charge(std::uint64_t bytes, const char* what) {
    const std::uint64_t ordinal = g_allocs.fetch_add(1, std::memory_order_relaxed) + 1;

    // Injected faults first: they simulate the hard failure a real
    // allocation would have hit at this exact site, so they must fire even
    // when the budget below would have let the charge through.
    if (g_fail_countdown.load(std::memory_order_relaxed) > 0) {
        if (g_fail_countdown.fetch_sub(1, std::memory_order_relaxed) == 1) {
            obs::counter_add("mem.faults_injected_total", 1.0);
            throw memory_budget_exceeded_error(
                message(what, ": injected allocation fault at tracked allocation #", ordinal,
                        " (", bytes, " bytes)"));
        }
    }
    const std::uint64_t fail_above = g_fail_above.load(std::memory_order_relaxed);
    const std::uint64_t current = g_current.load(std::memory_order_relaxed);
    if (fail_above > 0 && current + bytes > fail_above) {
        obs::counter_add("mem.faults_injected_total", 1.0);
        throw memory_budget_exceeded_error(
            message(what, ": injected allocation fault — ", bytes,
                    " bytes would push tracked footprint past the ", fail_above,
                    "-byte fault mark (current ", current, ")"));
    }

    if (const governor* g = governor::active();
        g != nullptr && g->limit() > 0 && current + bytes > g->limit()) {
        obs::counter_add("mem.budget_exceeded_total", 1.0);
        throw memory_budget_exceeded_error(
            message(what, ": allocating ", bytes, " bytes would exceed the memory budget (",
                    current, " of ", g->limit(), " bytes tracked)"));
    }

    const std::uint64_t now = g_current.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    const std::uint64_t peak = raise_peak(now);
    obs::counter_add("mem.tracked_allocs_total", 1.0);

    // Throttled gauge publication on peak growth.
    std::uint64_t last = g_last_published_peak.load(std::memory_order_relaxed);
    if (peak >= last + kGaugeStep &&
        g_last_published_peak.compare_exchange_strong(last, peak, std::memory_order_relaxed)) {
        publish(now, peak);
    }
}

void on_release(std::uint64_t bytes) noexcept {
    // Saturating decrement: a buffer allocated before tracking scope math
    // changed (e.g. moved across a reset) must never wrap the counter.
    std::uint64_t seen = g_current.load(std::memory_order_relaxed);
    std::uint64_t next;
    do {
        next = seen >= bytes ? seen - bytes : 0;
    } while (!g_current.compare_exchange_weak(seen, next, std::memory_order_relaxed));
}

}  // namespace ftc::mem
