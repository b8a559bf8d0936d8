/// \file kernel.hpp
/// Optimized sliding-Canberra kernel backends (DESIGN.md §9).
///
/// The pairwise sliding-Canberra dissimilarity dominates pipeline wall time:
/// for every (segment, segment) pair the reference code runs an
/// O(m·(n−m+1)) sliding loop with one floating-point divide per byte. This
/// layer removes the divides and most of the window work without changing a
/// single output bit:
///
///  - **LUT backend.** Byte values are 8-bit, so every per-byte term
///    |x−y|/(x+y) is one of 256×256 doubles. They are precomputed once into
///    a 512 KB table (term_table()); each term is produced by exactly the
///    arithmetic the scalar code uses and the accumulation order is
///    unchanged, so all sums are bitwise identical to the scalar backend.
///  - **Early-exit pruning.** Sliding windows track the best raw window sum
///    seen so far and abandon a window as soon as its partial sum exceeds
///    that bound (terms are non-negative, so the window cannot become the
///    minimum). The winning window is always summed in full, so d_min is
///    bitwise unchanged (exactness argument in DESIGN.md §9).
///  - **Batching.** A single pair's sum is a strictly in-order add chain —
///    latency-bound, not throughput-bound — so the admissible parallelism
///    is across *independent* sums: the sliding loop computes eight (then
///    four) consecutive windows at once and the batch entry points below
///    compute up to eight pairs at once, every individual chain still in
///    scalar element order. This is where most of the speedup comes from.
///
/// Complexity per pair (m = shorter length, n = longer): equal path
/// O(m) adds, no divides; sliding path O(m·(n−m+1)) worst case, typically
/// far less because of pruning; both backends O(1) extra space beyond the
/// shared table. Results of both backends are in [0, 1] and bitwise equal
/// to ftc::dissim::sliding_canberra_dissimilarity
/// (tests/test_dissim_kernel.cpp proves this property-wise and end to end).
#pragma once

#include <cstddef>
#include <cstdint>

#include "util/byteio.hpp"

namespace ftc::dissim::kernel {

/// Selectable kernel implementations.
///  - scalar: the reference per-byte divide loop (canberra.cpp), full
///    window sums, no pruning — the semantics-defining baseline and the
///    differential oracle of the tests and bench_kernel.
///  - lut:    portable table-driven loop with window pruning (the default).
enum class backend { scalar, lut };

/// Stable lower-case name of a backend ("scalar", "lut").
const char* backend_name(backend b);

/// The backend the dispatcher currently resolves to (lut unless forced).
backend active();

/// Force a specific backend (tests, benches).
void force(backend b);

/// Restore the default backend (lut).
void reset();

/// RAII backend override: forces \p b for the enclosing scope and restores
/// the previously active backend on destruction.
class scoped_backend {
public:
    explicit scoped_backend(backend b) : previous_(active()) { force(b); }
    ~scoped_backend() { force(previous_); }

    scoped_backend(const scoped_backend&) = delete;
    scoped_backend& operator=(const scoped_backend&) = delete;

private:
    backend previous_;
};

/// Kernel work counters, accumulated locally by callers (one atomic-free
/// struct per worker block) and published through ftc::obs by the matrix
/// construction — never updated per byte.
struct stats {
    std::uint64_t invocations = 0;      ///< kernel entry calls (pairs)
    std::uint64_t equal_fast_path = 0;  ///< pairs taking the equal-length path
    std::uint64_t windows_total = 0;    ///< sliding windows started
    std::uint64_t windows_pruned = 0;   ///< windows abandoned by the bound

    void merge(const stats& other) {
        invocations += other.invocations;
        equal_fast_path += other.equal_fast_path;
        windows_total += other.windows_total;
        windows_pruned += other.windows_pruned;
    }
};

/// The shared 256×256 row-major term table: term_table()[x*256 + y] is the
/// double |x−y|/(x+y) (0.0 when x = y = 0), bitwise equal to the term the
/// scalar loop computes. Built on first use, immutable afterwards.
const double* term_table();

/// Normalized Canberra dissimilarity of two equal-length non-empty byte
/// vectors through the active backend, in [0, 1]. O(m) adds.
/// Preconditions as ftc::dissim::canberra_dissimilarity.
double equal_dissimilarity(byte_view x, byte_view y, stats* st = nullptr);

/// Lane count of equal_dissimilarity_batch. Eight independent in-order add
/// chains saturate the FP pipeline; a single pair's chain is latency-bound.
inline constexpr std::size_t kEqualBatch = 8;

/// Computes out[k] = equal_dissimilarity(x, ys[k]) for k < count
/// (1 ≤ count ≤ kEqualBatch; every ys[k] has x's length). Bitwise identical
/// to count single calls — each pair keeps its own strictly in-order sum;
/// the batch only lets the independent chains overlap in the pipeline
/// (DESIGN.md §9). The matrix construction feeds this from its
/// length-bucketed visit order, where equal-length partners are contiguous.
void equal_dissimilarity_batch(byte_view x, const byte_view* ys, std::size_t count,
                               double* out, stats* st = nullptr);

/// Sliding Canberra dissimilarity of two non-empty byte vectors through
/// the active backend, in [0, 1]; falls through to the equal-length path
/// when the lengths match. O(m·(n−m+1)) worst case, pruned in practice.
/// Bitwise equal to ftc::dissim::sliding_canberra_dissimilarity.
double sliding_dissimilarity(byte_view a, byte_view b, stats* st = nullptr);

/// Lane count of sliding_dissimilarity_batch (call-overhead amortization,
/// not a numeric contract — any count up to this is accepted).
inline constexpr std::size_t kSlideBatch = 8;

/// Computes out[k] = sliding_dissimilarity(a, bs[k]) for k < count
/// (1 ≤ count ≤ kSlideBatch), bitwise identical to count single calls.
/// Each pair still runs its own full sliding loop; the batch resolves the
/// backend once and lets the independent per-pair normalization chains
/// overlap in the pipeline, which matters for the short segments that
/// dominate real traces.
void sliding_dissimilarity_batch(byte_view a, const byte_view* bs, std::size_t count,
                                 double* out, stats* st = nullptr);

}  // namespace ftc::dissim::kernel
