/// \file sparse.hpp
/// Sparse epsilon-neighborhood construction (ftc::dissim::sparse,
/// DESIGN.md §13) — the sub-quadratic replacement for the dense matrix.
///
/// Instead of materializing all n·(n−1)/2 pairwise cells, the sparse engine
/// keeps, per unique segment, a short sorted list of its nearest neighbors
/// (capped at the autoconf k horizon) and answers everything else with
/// bucket-pruned on-demand scans:
///
///  - **Length buckets.** Representatives are grouped by byte length. For
///    lengths m <= n the sliding-Canberra dissimilarity is bounded below by
///    ((n−m)/n)² (derivation in DESIGN.md §13), so whole buckets whose
///    bound provably exceeds the current epsilon ceiling are skipped
///    without a single kernel call. Buckets are visited in ascending-bound
///    order, so the first pruned bucket ends the scan.
///  - **Phase 1: capped k-NN lists.** One bucket-pruned scan per point
///    collects its min(cap, n−1) nearest neighbors exactly — the same f32
///    order statistics a dense row selection yields — shrinking the prune
///    ceiling as the candidate heap fills. This serves every
///    kth_nn_many request up to the cap bitwise identically to the
///    matrix path.
///  - **Phase 2: cached range queries.** neighbors_within(i, eps) is exact
///    at ANY epsilon: served from the phase-1 list while eps lies below the
///    list's completeness radius, re-scanned (bucket-pruned, at eps) and
///    cached otherwise. prepare_range(eps) runs every rescan a sweep at eps
///    will need up front, in parallel, so DBSCAN's queries are all
///    cache-served; the epsilon walk re-uses the caches across sweeps.
///  - **Pair blocks.** pair_block(rows, cols) scores a row strip of pairs
///    through the batched kernels, fanned out over the build's lanes.
///    Nothing is memoized: the refinement pass asks for each pair it needs
///    once, in bounded strips. dissimilarity(i, j) is a plain kernel call.
///
/// Everything is charged against ftc::mem (the sparse path is rung 0 of the
/// degradation ladder: it avoids the O(n²) allocation entirely), progress is
/// published through the obs seqlock ("dissim.sparse" stage), and the
/// pairs-scored/pairs-skipped/buckets-pruned counters quantify the
/// reduction. Clustering output over a sparse source is byte-identical to
/// the dense path (tests/test_pipeline_sparse.cpp) because every value it
/// exposes is the value the matrix would have stored.
#pragma once

#include <atomic>
#include <cstdint>
#include <functional>
#include <memory>
#include <span>
#include <vector>

#include "dissim/kernel.hpp"
#include "dissim/neighborhood.hpp"
#include "mem/mem.hpp"
#include "util/byteio.hpp"
#include "util/stopwatch.hpp"
#include "util/thread_pool.hpp"

namespace ftc::dissim {

/// Construction knobs of sparse_neighborhood.
struct sparse_build_options {
    /// Neighbors retained per point (>= 1) — the k horizon kth_nn_many can
    /// serve. The pipeline passes cluster::knn_k_max(n).
    std::size_t knn_cap = 2;
    /// Worker lanes for the phase-1 build and for every later bulk query
    /// (pair_block, prepare_range); 0 = hardware concurrency. Per-point
    /// scans and per-pair scores are independent, so every answer is
    /// bitwise identical at any thread count.
    std::size_t threads = 1;
};

/// Sparse neighborhood_source over capped per-point neighbor lists (file
/// comment above; interface contract in neighborhood.hpp). Does not own
/// \p values — they back the on-demand kernel scans and must outlive the
/// object (the pipeline keeps unique_segments alive for the whole run).
class sparse_neighborhood final : public neighborhood_source {
public:
    /// Phase-1 build: bucket the values, scan each point's capped k-NN list.
    /// Polls \p dl cooperatively from every lane.
    sparse_neighborhood(std::span<const byte_vector> values,
                        const sparse_build_options& opts, const deadline& dl = {});

    /// Adopt previously built lists (checkpoint resume). \p lists must
    /// cover exactly \p values — deep validation happened at decode time
    /// (ckpt::decode_neighbors); this checks the shape invariants.
    /// \p threads sets the bulk-query lanes as sparse_build_options does.
    sparse_neighborhood(std::span<const byte_vector> values, capped_neighbors lists,
                        std::size_t threads = 1);

    std::size_t size() const override { return n_; }
    double dissimilarity(std::size_t i, std::size_t j) const override;
    void pair_block(std::span<const std::size_t> rows, std::span<const std::size_t> cols,
                    std::span<float> out) const override;
    std::vector<std::uint32_t> neighbors_within(std::size_t i,
                                                double epsilon) const override;
    void prepare_range(double epsilon) const override;
    std::size_t knn_cap() const override { return capped_.cap; }
    std::vector<std::vector<double>> kth_nn_many(std::size_t k_max,
                                                 std::size_t threads = 1) const override;

    /// The phase-1 lists — what ftc::ckpt persists as the neighbors section.
    const capped_neighbors& capped() const { return capped_; }

    /// Kernel pairs actually scored so far (phase 1 + rescans + blocks);
    /// the bench's pair-reduction numerator.
    std::uint64_t pairs_scored() const {
        return pairs_scored_.load(std::memory_order_relaxed);
    }

    /// Number of length buckets the values fell into.
    std::size_t bucket_count() const { return bucket_len_.size(); }

    /// Conservative f32 lower bound of the sliding-Canberra dissimilarity
    /// of two segments given only their lengths: ((n−m)/n)² for m <= n,
    /// deflated by two float ulps so that float-narrowed kernel results can
    /// never fall below it (proof sketch in DESIGN.md §13). Exposed for the
    /// property tests.
    static float length_lower_bound(std::size_t len_a, std::size_t len_b);

private:
    /// Range-query cache of one point: `items` (d, id)-ascending, the point
    /// itself excluded. Exact for every epsilon <= complete_through. Until
    /// the first rescan the phase-1 list itself is the cache (rescanned ==
    /// false) with completeness just below its largest stored distance.
    struct range_cache {
        double complete_through = -1.0;
        bool rescanned = false;
        std::vector<neighbor> items;
    };

    void build_buckets();
    void build_lists(const sparse_build_options& opts, const deadline& dl);
    void seed_caches();
    void charge_storage();
    std::vector<neighbor> scan_range(std::size_t i, double epsilon, kernel::stats* stp,
                                     std::uint64_t& scored) const;
    void rescan(std::size_t i, double epsilon) const;
    void run_lanes(std::size_t count, std::size_t grain,
                   const std::function<void(std::size_t, std::size_t)>& body) const;

    template <typename Visit>
    std::pair<std::uint64_t, std::uint64_t> walk_buckets(std::size_t home,
                                                         std::size_t len,
                                                         Visit&& visit) const;

    std::span<const byte_vector> values_;
    std::size_t n_ = 0;

    // Length buckets: distinct lengths ascending, member ids grouped per
    // bucket (ascending within), and each point's home bucket.
    std::vector<std::size_t> bucket_len_;
    std::vector<std::uint32_t> bucket_begin_;  ///< bucket_count()+1 offsets
    std::vector<std::uint32_t> by_length_;
    std::vector<std::uint32_t> bucket_of_;

    capped_neighbors capped_;
    mutable std::vector<range_cache> cache_;

    mutable std::atomic<std::uint64_t> pairs_scored_{0};

    // Lanes of the build and of every bulk query; the pool is spawned by
    // the first fan-out that needs more than one block and then reused.
    std::size_t lanes_ = 1;
    mutable std::unique_ptr<util::thread_pool> pool_;

    mem::charge lists_charge_;
    mutable std::uint64_t cache_bytes_ = 0;
    mutable mem::charge cache_charge_;
};

}  // namespace ftc::dissim
