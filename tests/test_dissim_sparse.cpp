// Unit tests of the sparse epsilon-neighborhood engine (dissim/sparse.hpp):
// every query it serves must agree bit for bit with the dense matrix
// adapter over the same values, at any thread count, any cap covering the
// request, and whether lists were freshly built or adopted from a
// checkpoint. The bulk queries (pair_block, prepare_range) must agree with
// the per-item ones at any lane count. Also covers the satellite contract of cluster::autoconf over
// capped lists: identical parameters when the cap covers k_max, a typed
// knn_cap_error when it does not.
#include "dissim/sparse.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "cluster/autoconf.hpp"
#include "dissim/matrix.hpp"
#include "obs/obs.hpp"

namespace ftc::dissim {
namespace {

std::uint64_t splitmix64(std::uint64_t& state) {
    std::uint64_t z = (state += 0x9e3779b97f4a7c15ULL);
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
    return z ^ (z >> 31);
}

/// Random corpus with a spread of lengths (so bucket pruning engages) and
/// byte values away from zero (so Canberra terms stay well-conditioned).
std::vector<byte_vector> random_corpus(std::size_t n, std::uint64_t seed,
                                       std::size_t min_len = 2, std::size_t max_len = 20) {
    std::uint64_t rng = seed;
    std::vector<byte_vector> out;
    out.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        const std::size_t len = min_len + splitmix64(rng) % (max_len - min_len + 1);
        byte_vector v(len);
        for (std::size_t j = 0; j < len; ++j) {
            v[j] = static_cast<std::uint8_t>(splitmix64(rng) % 256);
        }
        out.push_back(std::move(v));
    }
    return out;
}

sparse_neighborhood make_sparse(const std::vector<byte_vector>& values, std::size_t cap,
                                std::size_t threads = 1) {
    sparse_build_options opts;
    opts.knn_cap = cap;
    opts.threads = threads;
    return sparse_neighborhood(values, opts);
}

const double kEpsilonGrid[] = {0.0, 0.01, 0.05, 0.1, 0.2, 0.4, 0.7, 1.0};

TEST(SparseNeighborhood, NeighborsWithinMatchesDenseOnEpsilonGrid) {
    const auto values = random_corpus(120, 11);
    const dissimilarity_matrix matrix(values);
    const matrix_neighborhood dense(matrix);
    const sparse_neighborhood sparse = make_sparse(values, cluster::knn_k_max(values.size()));
    for (const double eps : kEpsilonGrid) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            EXPECT_EQ(sparse.neighbors_within(i, eps), dense.neighbors_within(i, eps))
                << "i=" << i << " eps=" << eps;
        }
    }
}

TEST(SparseNeighborhood, KthNnMatchesDenseForEveryCoveredK) {
    const auto values = random_corpus(90, 23);
    const dissimilarity_matrix matrix(values);
    const std::size_t k_max = cluster::knn_k_max(values.size());
    const sparse_neighborhood sparse = make_sparse(values, k_max);
    const std::vector<std::vector<double>> curves = sparse.kth_nn_many(k_max);
    ASSERT_EQ(curves.size(), k_max);
    for (std::size_t k = 1; k <= k_max; ++k) {
        EXPECT_EQ(curves[k - 1], matrix.kth_nn(k)) << "k=" << k;
    }
    EXPECT_EQ(curves, matrix.kth_nn_many(k_max));
}

TEST(SparseNeighborhood, DissimilarityMatchesMatrixCells) {
    const auto values = random_corpus(60, 37);
    const dissimilarity_matrix matrix(values);
    const sparse_neighborhood sparse = make_sparse(values, 3);
    for (std::size_t i = 0; i < values.size(); ++i) {
        for (std::size_t j = 0; j < values.size(); ++j) {
            EXPECT_EQ(sparse.dissimilarity(i, j), matrix.at(i, j)) << i << "," << j;
        }
    }
    // Nothing is memoized: a second sweep runs the kernel again for every
    // off-diagonal pair, in the other argument order, and gets the same
    // bits.
    const std::uint64_t before = sparse.pairs_scored();
    for (std::size_t i = 0; i < values.size(); ++i) {
        for (std::size_t j = i + 1; j < values.size(); ++j) {
            EXPECT_EQ(sparse.dissimilarity(j, i), matrix.at(i, j));
        }
    }
    EXPECT_EQ(sparse.pairs_scored() - before, values.size() * (values.size() - 1) / 2);
}

std::vector<std::size_t> random_ids(std::size_t count, std::size_t n, std::uint64_t seed) {
    std::uint64_t rng = seed;
    std::vector<std::size_t> ids(count);
    for (std::size_t& id : ids) {
        id = splitmix64(rng) % n;
    }
    return ids;
}

TEST(SparseNeighborhood, PairBlockIsBitwiseEqualToMatrixCells) {
    // Lengths 2..40 mix the equal-length and sliding kernels inside one
    // row; random ids with repeats put self pairs anywhere in a block.
    const auto values = random_corpus(150, 53, 2, 40);
    const dissimilarity_matrix matrix(values);
    const matrix_neighborhood dense(matrix);
    struct shape {
        std::size_t rows;
        std::size_t cols;
    };
    // One cell, one row, a row wider than a work unit, a block spanning
    // several units that start and end mid-row, and a tall narrow block.
    const shape shapes[] = {{1, 1}, {1, 37}, {1, 3000}, {45, 131}, {700, 7}};
    for (const std::size_t lanes : {1u, 4u}) {
        const sparse_neighborhood sparse = make_sparse(values, 3, lanes);
        std::uint64_t seed = 101;
        for (const shape& sh : shapes) {
            const std::vector<std::size_t> rows = random_ids(sh.rows, values.size(), ++seed);
            std::vector<std::size_t> cols = random_ids(sh.cols, values.size(), ++seed);
            cols.front() = rows.front();  // at least one self pair
            std::vector<float> got(sh.rows * sh.cols, -1.0f);
            std::vector<float> want(sh.rows * sh.cols, -1.0f);
            sparse.pair_block(rows, cols, got);
            dense.pair_block(rows, cols, want);
            for (std::size_t r = 0; r < sh.rows; ++r) {
                for (std::size_t c = 0; c < sh.cols; ++c) {
                    const float cell = static_cast<float>(matrix.at(rows[r], cols[c]));
                    ASSERT_EQ(got[r * sh.cols + c], cell)
                        << "lanes=" << lanes << " r=" << r << " c=" << c;
                    ASSERT_EQ(want[r * sh.cols + c], cell);
                }
            }
        }
    }
}

TEST(SparseNeighborhood, PairBlockRejectsMisshapedOutput) {
    const auto values = random_corpus(20, 59);
    const sparse_neighborhood sparse = make_sparse(values, 3);
    const std::vector<std::size_t> ids = {0, 1, 2};
    std::vector<float> out(8);
    EXPECT_THROW(sparse.pair_block(ids, ids, out), precondition_error);
    const std::vector<std::size_t> bad = {0, values.size()};
    std::vector<float> two(2 * 3);
    EXPECT_THROW(sparse.pair_block(bad, ids, two), precondition_error);
}

/// Range rescans counted while \p body runs.
template <typename Body>
double rescans_during(Body&& body) {
    obs::scoped_recorder recorder;
    body();
    const obs::metrics_snapshot m = recorder.rec().metrics().snapshot();
    const auto it = m.counters.find("dissim.sparse.range_rescans_total");
    return it == m.counters.end() ? 0.0 : it->second;
}

TEST(SparseNeighborhood, PreparedRangeQueriesEqualTheLazyPath) {
    // A tiny cap sends every realistic epsilon past the capped lists, so
    // the sweeps below rescan; the walk revisits epsilons in both
    // directions, as the auto-configuration does.
    const auto values = random_corpus(110, 61);
    const dissimilarity_matrix matrix(values);
    const matrix_neighborhood dense(matrix);
    for (const std::size_t lanes : {1u, 4u}) {
        const sparse_neighborhood lazy = make_sparse(values, 2, lanes);
        const sparse_neighborhood prepared = make_sparse(values, 2, lanes);
        const std::uint64_t built = lazy.pairs_scored();
        for (const double eps : {0.2, 0.05, 0.4, 0.4, 0.7, 0.3, 1.0}) {
            std::vector<std::vector<std::uint32_t>> lazy_answers;
            const double lazy_rescans = rescans_during([&] {
                for (std::size_t i = 0; i < values.size(); ++i) {
                    lazy_answers.push_back(lazy.neighbors_within(i, eps));
                }
            });
            std::vector<std::vector<std::uint32_t>> prepared_answers;
            const double prepared_rescans = rescans_during([&] {
                prepared.prepare_range(eps);
                for (std::size_t i = 0; i < values.size(); ++i) {
                    prepared_answers.push_back(prepared.neighbors_within(i, eps));
                }
            });
            EXPECT_EQ(prepared_answers, lazy_answers) << "lanes=" << lanes << " eps=" << eps;
            EXPECT_EQ(prepared_rescans, lazy_rescans) << "lanes=" << lanes << " eps=" << eps;
            for (std::size_t i = 0; i < values.size(); ++i) {
                EXPECT_EQ(prepared_answers[i], dense.neighbors_within(i, eps));
            }
        }
        EXPECT_GT(lazy.pairs_scored(), built) << "the sweeps must rescan";
        EXPECT_EQ(prepared.pairs_scored(), lazy.pairs_scored()) << "lanes=" << lanes;
    }
}

TEST(SparseNeighborhood, LengthLowerBoundIsConservative) {
    const auto values = random_corpus(80, 41, 2, 40);
    const dissimilarity_matrix matrix(values);
    for (std::size_t i = 0; i < values.size(); ++i) {
        for (std::size_t j = i + 1; j < values.size(); ++j) {
            const float lb =
                sparse_neighborhood::length_lower_bound(values[i].size(), values[j].size());
            EXPECT_LE(static_cast<double>(lb), matrix.at(i, j))
                << values[i].size() << " vs " << values[j].size();
        }
    }
    EXPECT_EQ(sparse_neighborhood::length_lower_bound(7, 7), 0.0f);
    EXPECT_GE(sparse_neighborhood::length_lower_bound(2, 200), 0.0f);
    EXPECT_LT(sparse_neighborhood::length_lower_bound(2, 200), 1.0f);
}

TEST(SparseNeighborhood, BucketPruningSkipsPairsWithoutChangingResults) {
    // Two tight same-length families far apart in length: the lower bound
    // between families exceeds any intra-family k-NN threshold, so the
    // builder must never score a cross-family pair.
    std::vector<byte_vector> values;
    std::uint64_t rng = 53;
    for (std::size_t i = 0; i < 60; ++i) {
        const std::size_t len = (i % 2 == 0) ? 4 : 64;
        byte_vector v(len, static_cast<std::uint8_t>(160));
        v[splitmix64(rng) % len] = static_cast<std::uint8_t>(161 + splitmix64(rng) % 3);
        values.push_back(std::move(v));
    }
    const sparse_neighborhood sparse = make_sparse(values, cluster::knn_k_max(values.size()));
    const std::uint64_t all_pairs =
        static_cast<std::uint64_t>(values.size()) * (values.size() - 1) / 2;
    EXPECT_LT(sparse.pairs_scored(), all_pairs);
    EXPECT_EQ(sparse.bucket_count(), 2u);

    const dissimilarity_matrix matrix(values);
    const matrix_neighborhood dense(matrix);
    for (const double eps : kEpsilonGrid) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            EXPECT_EQ(sparse.neighbors_within(i, eps), dense.neighbors_within(i, eps));
        }
    }
}

TEST(SparseNeighborhood, ListsAreBitwiseIdenticalAcrossThreadCounts) {
    const auto values = random_corpus(150, 67);
    const std::size_t cap = cluster::knn_k_max(values.size());
    const sparse_neighborhood serial = make_sparse(values, cap, 1);
    for (const std::size_t threads : {2u, 5u}) {
        const sparse_neighborhood parallel = make_sparse(values, cap, threads);
        ASSERT_EQ(parallel.capped().lists.size(), serial.capped().lists.size());
        for (std::size_t i = 0; i < serial.capped().lists.size(); ++i) {
            const auto& a = serial.capped().lists[i];
            const auto& b = parallel.capped().lists[i];
            ASSERT_EQ(a.size(), b.size()) << "i=" << i;
            for (std::size_t k = 0; k < a.size(); ++k) {
                EXPECT_EQ(a[k].id, b[k].id) << "i=" << i << " k=" << k;
                EXPECT_EQ(a[k].d, b[k].d) << "i=" << i << " k=" << k;
            }
        }
    }
}

TEST(SparseNeighborhood, AdoptedListsServeIdenticalQueries) {
    const auto values = random_corpus(70, 71);
    const std::size_t cap = cluster::knn_k_max(values.size());
    const sparse_neighborhood built = make_sparse(values, cap);
    capped_neighbors copy = built.capped();
    const sparse_neighborhood adopted(values, std::move(copy));
    EXPECT_EQ(adopted.knn_cap(), built.knn_cap());
    EXPECT_EQ(adopted.kth_nn_many(cap), built.kth_nn_many(cap));
    for (const double eps : kEpsilonGrid) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            EXPECT_EQ(adopted.neighbors_within(i, eps), built.neighbors_within(i, eps));
        }
    }
}

TEST(SparseNeighborhood, RangeQueriesBeyondTheCapRescanExactly) {
    // A tiny cap forces the range path off the capped lists for any
    // realistic epsilon; answers must still match dense exactly, and a
    // repeated query (served from the rescan cache) must not drift.
    const auto values = random_corpus(80, 83);
    const dissimilarity_matrix matrix(values);
    const matrix_neighborhood dense(matrix);
    const sparse_neighborhood sparse = make_sparse(values, 2);
    for (const double eps : {0.3, 0.8, 1.0}) {
        for (std::size_t i = 0; i < values.size(); ++i) {
            const auto first = sparse.neighbors_within(i, eps);
            EXPECT_EQ(first, dense.neighbors_within(i, eps));
            EXPECT_EQ(sparse.neighbors_within(i, eps), first);
        }
    }
}

TEST(SparseAutoconf, MatchesDenseWhenCapCoversKmax) {
    const auto values = random_corpus(130, 97);
    const dissimilarity_matrix matrix(values);
    const sparse_neighborhood sparse = make_sparse(values, cluster::knn_k_max(values.size()));
    const cluster::autoconf_result from_dense = cluster::auto_configure(matrix);
    const cluster::autoconf_result from_sparse = cluster::auto_configure(sparse);
    EXPECT_EQ(from_sparse.epsilon, from_dense.epsilon);
    EXPECT_EQ(from_sparse.min_samples, from_dense.min_samples);
    EXPECT_EQ(from_sparse.selected_k, from_dense.selected_k);
    EXPECT_EQ(from_sparse.knee_found, from_dense.knee_found);

    const cluster::auto_cluster_result dense_cluster = cluster::auto_cluster(matrix);
    const cluster::auto_cluster_result sparse_cluster = cluster::auto_cluster(sparse);
    EXPECT_EQ(sparse_cluster.labels.labels, dense_cluster.labels.labels);
    EXPECT_EQ(sparse_cluster.labels.cluster_count, dense_cluster.labels.cluster_count);
    EXPECT_EQ(sparse_cluster.config.epsilon, dense_cluster.config.epsilon);
}

TEST(SparseAutoconf, UnderCappedSourceThrowsTypedError) {
    const auto values = random_corpus(200, 101);
    const std::size_t k_max = cluster::knn_k_max(values.size());
    ASSERT_GT(k_max, 2u);
    const sparse_neighborhood sparse = make_sparse(values, 2);
    EXPECT_THROW(sparse.kth_nn_many(k_max), knn_cap_error);
    EXPECT_THROW(cluster::auto_configure(sparse), knn_cap_error);
    EXPECT_THROW(cluster::auto_cluster(sparse), knn_cap_error);
    // Covered requests still work on the same under-capped source.
    EXPECT_EQ(sparse.kth_nn_many(2).back().size(), values.size());
}

TEST(SparseNeighborhood, ParseAndNameRoundTripModes) {
    EXPECT_EQ(parse_neighborhood_mode("dense"), neighborhood_mode::dense);
    EXPECT_EQ(parse_neighborhood_mode("sparse"), neighborhood_mode::sparse);
    EXPECT_EQ(parse_neighborhood_mode("auto"), neighborhood_mode::auto_);
    EXPECT_STREQ(neighborhood_mode_name(neighborhood_mode::sparse), "sparse");
    EXPECT_THROW(parse_neighborhood_mode("bogus"), precondition_error);
}

}  // namespace
}  // namespace ftc::dissim
