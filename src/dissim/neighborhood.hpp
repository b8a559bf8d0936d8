/// \file neighborhood.hpp
/// The epsilon-neighborhood abstraction between the dissimilarity layer and
/// the clustering layer (DESIGN.md §13).
///
/// DBSCAN, the epsilon auto-configuration and the refinement pass never need
/// the full pairwise matrix — they consume three queries: "who is within
/// epsilon of i", "the k-th-nearest-neighbour curve", and "the
/// dissimilarities of this block of pairs". neighborhood_source names
/// exactly that contract so the clustering layer can run against either
/// backing store:
///
///  - matrix_neighborhood wraps the existing dense/triangular
///    dissimilarity_matrix (every query answered from stored cells), or
///  - sparse_neighborhood (sparse.hpp) answers them from capped per-point
///    neighbor lists plus bucket-pruned scans and batched pair blocks,
///    never materializing the O(n²) matrix.
///
/// Two bulk queries let a source amortize work across many pairs or points:
/// pair_block scores a row strip at once, and prepare_range announces the
/// epsilon of the sweep that follows (release_range ends it). pair_block
/// defaults to one pair at a time, which is all stored cells need; both
/// sources override prepare_range to do a sweep's range work up front on
/// every lane — the sparse one rescans its lists for neighbors_within, the
/// matrix one fills a bit matrix of the cells within epsilon, whose rows
/// prepared_row hands to DBSCAN.
///
/// Contract (every implementation, verified by tests/test_dissim_sparse.cpp
/// and tests/test_dissim_neighborhood.cpp):
///  - dissimilarity(i, j) returns the value the matrix cell would hold: the
///    kernel result narrowed to f32 storage precision and widened back, so
///    both sources are bitwise interchangeable. pair_block returns the same
///    f32 values, cell for cell.
///  - neighbors_within(i, eps) returns every j (including i itself, distance
///    zero) with dissimilarity(i, j) <= eps, ids ascending — the exact
///    neighbor set a matrix row scan produces. DBSCAN's labels depend on
///    these sets alone (cluster/dbscan.hpp), so they are identical on
///    every source. prepare_range never changes an answer, only when its
///    work happens; a non-empty prepared_row(i, eps) holds exactly the
///    set neighbors_within(i, eps) returns.
///  - kth_nn_many returns the same doubles the matrix extraction yields,
///    for every k up to knn_cap(); beyond the cap it throws knn_cap_error
///    (typed, so the caller can distinguish "this source cannot serve k"
///    from a malformed request).
#pragma once

#include <cstdint>
#include <span>
#include <string_view>
#include <vector>

#include "dissim/matrix.hpp"
#include "mem/mem.hpp"
#include "util/error.hpp"

namespace ftc::dissim {

/// A k-NN request exceeded the horizon a neighborhood source retained
/// (sparse sources keep only knn_cap() neighbors per point). Derives from
/// precondition_error: the fix is on the caller — request fewer neighbors
/// or build the source with a larger cap.
class knn_cap_error : public precondition_error {
public:
    using precondition_error::precondition_error;
};

/// One stored neighbor: partner id and the f32 dissimilarity exactly as a
/// matrix cell would store it.
struct neighbor {
    std::uint32_t id = 0;
    float d = 0.0f;
};

/// Per-point sorted neighbor lists capped at a k horizon — the persistable
/// substrate of a sparse_neighborhood (checkpoint section `neighbors`).
/// lists[i] holds point i's min(cap, n-1) nearest neighbors ascending by
/// (d, id), excluding i itself; the values are the same f32 order
/// statistics a dense matrix row scan yields.
struct capped_neighbors {
    std::uint32_t cap = 0;
    std::vector<std::vector<neighbor>> lists;

    std::size_t size() const { return lists.size(); }
};

/// Which neighborhood construction the pipeline uses (--neighborhood).
/// Result-neutral by construction — both paths produce byte-identical
/// cluster reports — so the mode is deliberately NOT part of the checkpoint
/// fingerprint, exactly like thread counts and kernel backends.
enum class neighborhood_mode {
    dense,   ///< always build the full dissimilarity matrix
    sparse,  ///< always build capped neighbor lists (ftc::dissim::sparse)
    auto_,   ///< sparse at scale (>= auto threshold uniques), dense below
};

/// Unique-segment count at which neighborhood_mode::auto_ switches to the
/// sparse engine. Below it the dense matrix is small enough that the O(n²)
/// build is not the bottleneck and its unlimited k horizon keeps every
/// legacy path available.
inline constexpr std::size_t kSparseAutoUniques = 4096;

/// Stable lower-case name ("dense", "sparse", "auto").
const char* neighborhood_mode_name(neighborhood_mode mode);

/// Parse a --neighborhood value; throws ftc::precondition_error on anything
/// but "dense", "sparse" or "auto".
neighborhood_mode parse_neighborhood_mode(std::string_view text);

/// The epsilon-neighborhood queries the clustering layer consumes (contract
/// in the file comment). Query methods are logically const; sparse
/// implementations cache range answers behind the interface, so a single
/// source must not be queried from multiple threads concurrently (the
/// clustering consumers are serial; the bulk queries and kth_nn_many
/// parallelize internally).
class neighborhood_source {
public:
    virtual ~neighborhood_source() = default;

    /// Number of points (unique segment values).
    virtual std::size_t size() const = 0;

    /// Dissimilarity of the pair (i, j) at f32 storage precision, widened
    /// to double; 0 on the diagonal.
    virtual double dissimilarity(std::size_t i, std::size_t j) const = 0;

    /// Row strip of pair dissimilarities at f32 storage precision:
    /// out[r * cols.size() + c] = dissimilarity(rows[r], cols[c]), 0 where
    /// the ids coincide. \p out must hold exactly rows.size() * cols.size()
    /// cells. The default reads one pair at a time.
    virtual void pair_block(std::span<const std::size_t> rows,
                            std::span<const std::size_t> cols, std::span<float> out) const;

    /// Every j (including i itself) with dissimilarity(i, j) <= epsilon,
    /// ids ascending.
    virtual std::vector<std::uint32_t> neighbors_within(std::size_t i,
                                                        double epsilon) const = 0;

    /// Announce a sweep of neighbors_within(·, epsilon) over the points: a
    /// source may do the range work for every point now, in bulk, so the
    /// queries that follow are served from its cache. Answers are unchanged
    /// either way. The default does nothing.
    virtual void prepare_range(double /*epsilon*/) const {}

    /// Point i's row of the range bits prepare_range(epsilon) built, for a
    /// consumer that walks neighbor sets a word at a time (cluster::dbscan):
    /// ceil(size()/64) words, bit j % 64 of word j / 64 set iff
    /// dissimilarity(i, j) <= epsilon, so the set bits are exactly
    /// neighbors_within(i, epsilon). Empty when the source keeps no bits for
    /// \p epsilon; neighbors_within answers then. The default keeps none.
    virtual std::span<const std::uint64_t> prepared_row(std::size_t /*i*/,
                                                        double /*epsilon*/) const {
        return {};
    }

    /// End the sweep prepare_range announced: a source may drop what it
    /// built for that epsilon alone. Answers are unchanged either way. The
    /// default does nothing.
    virtual void release_range() const {}

    /// Largest k kth_nn_many can serve (requests are clamped to size()-1
    /// first, so a cap >= size()-1 means unlimited).
    virtual std::size_t knn_cap() const = 0;

    /// All curves k = 1..k_max in one batch (semantics of
    /// dissimilarity_matrix::kth_nn_many: curve [k-1] is every point's
    /// k-th-nearest-neighbor dissimilarity). Throws knn_cap_error when the
    /// clamped k_max exceeds knn_cap().
    virtual std::vector<std::vector<double>> kth_nn_many(std::size_t k_max,
                                                         std::size_t threads = 1) const = 0;
};

/// neighborhood_source over a prebuilt dense/triangular matrix: every query
/// forwards to the stored cells. Does not own the matrix; it must outlive
/// the adapter.
///
/// prepare_range(eps) fills, on \p threads lanes, an n x ceil(n/64)-word
/// bit matrix of cells <= eps (tracked; 1/32 of the dense f32 matrix),
/// every lane for its own rows, and prepared_row hands out its rows. When
/// the governor cannot fit the bits, none are kept and DBSCAN walks
/// neighbors_within lists; release_range frees them. neighbors_within
/// always scans the matrix row.
class matrix_neighborhood final : public neighborhood_source {
public:
    explicit matrix_neighborhood(const dissimilarity_matrix& matrix, std::size_t threads = 1)
        : matrix_(matrix), threads_(threads) {}

    std::size_t size() const override { return matrix_.size(); }

    double dissimilarity(std::size_t i, std::size_t j) const override {
        return matrix_.at(i, j);
    }

    std::vector<std::uint32_t> neighbors_within(std::size_t i,
                                                double epsilon) const override;

    void prepare_range(double epsilon) const override;

    std::span<const std::uint64_t> prepared_row(std::size_t i, double epsilon) const override;

    void release_range() const override;

    /// True while prepared_row(·, epsilon) hands out bits.
    bool range_prepared(double epsilon) const {
        return !range_bits_.empty() && epsilon == range_epsilon_;
    }

    /// A matrix row holds every neighbor, so any clamped k is servable.
    std::size_t knn_cap() const override { return matrix_.size(); }

    std::vector<std::vector<double>> kth_nn_many(std::size_t k_max,
                                                 std::size_t threads = 1) const override {
        return matrix_.kth_nn_many(k_max, threads);
    }

private:
    const dissimilarity_matrix& matrix_;
    std::size_t threads_ = 1;
    /// Row i's bit j (word i * ceil(n/64) + j / 64) is set iff
    /// at(i, j) <= range_epsilon_; empty when no sweep is prepared.
    mutable mem::buffer<std::uint64_t> range_bits_;
    mutable double range_epsilon_ = 0.0;
};

}  // namespace ftc::dissim
