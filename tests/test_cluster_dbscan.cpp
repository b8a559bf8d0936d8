// Unit and property tests for DBSCAN (cluster/dbscan.hpp), plus randomized
// differential checks against a textbook DBSCAN that reads cells straight
// from the matrix, on every kind of neighborhood source.
#include "cluster/dbscan.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "dissim/sparse.hpp"

#include "util/check.hpp"
#include "util/rng.hpp"

namespace ftc::cluster {
namespace {

/// Matrix from points on a line: d(i,j) = |x_i - x_j| (clamped to [0,1]).
dissim::dissimilarity_matrix line_matrix(const std::vector<double>& xs) {
    const std::size_t n = xs.size();
    std::vector<double> dense(n * n, 0.0);
    for (std::size_t i = 0; i < n; ++i) {
        for (std::size_t j = 0; j < n; ++j) {
            dense[i * n + j] = std::min(1.0, std::abs(xs[i] - xs[j]));
        }
    }
    return dissim::dissimilarity_matrix::from_dense(dense, n);
}

TEST(Dbscan, TwoBlobsAndOutlier) {
    // Blob A at 0.0..0.03, blob B at 0.5..0.53, outlier at 0.9.
    const std::vector<double> xs{0.00, 0.01, 0.02, 0.03, 0.50, 0.51, 0.52, 0.53, 0.90};
    const auto m = line_matrix(xs);
    const cluster_labels r = dbscan(m, {.epsilon = 0.05, .min_samples = 3});
    EXPECT_EQ(r.cluster_count, 2u);
    EXPECT_EQ(r.noise_count(), 1u);
    EXPECT_EQ(r.labels[8], kNoise);
    // Blob members share labels.
    EXPECT_EQ(r.labels[0], r.labels[3]);
    EXPECT_EQ(r.labels[4], r.labels[7]);
    EXPECT_NE(r.labels[0], r.labels[4]);
}

TEST(Dbscan, EverythingOneClusterAtLargeEpsilon) {
    const std::vector<double> xs{0.0, 0.1, 0.2, 0.3, 0.4};
    const auto m = line_matrix(xs);
    const cluster_labels r = dbscan(m, {.epsilon = 0.5, .min_samples = 2});
    EXPECT_EQ(r.cluster_count, 1u);
    EXPECT_EQ(r.noise_count(), 0u);
}

TEST(Dbscan, EverythingNoiseAtTinyEpsilon) {
    const std::vector<double> xs{0.0, 0.2, 0.4, 0.6, 0.8};
    const auto m = line_matrix(xs);
    const cluster_labels r = dbscan(m, {.epsilon = 0.01, .min_samples = 2});
    EXPECT_EQ(r.cluster_count, 0u);
    EXPECT_EQ(r.noise_count(), 5u);
}

TEST(Dbscan, MinSamplesControlsDensityRequirement) {
    // Chain of 3 points, each 0.05 apart.
    const std::vector<double> xs{0.0, 0.05, 0.10};
    const auto m = line_matrix(xs);
    // min_samples=2: every point has one neighbour within eps -> chain forms.
    EXPECT_EQ(dbscan(m, {.epsilon = 0.06, .min_samples = 2}).cluster_count, 1u);
    // min_samples=4 (more than the 3 points): nothing can be a core point.
    EXPECT_EQ(dbscan(m, {.epsilon = 0.06, .min_samples = 4}).cluster_count, 0u);
}

TEST(Dbscan, BorderPointJoinsCluster) {
    // Dense core 0.00..0.02 plus a border point at 0.055 reachable from the
    // core but itself not core (needs 4 points within 0.04).
    const std::vector<double> xs{0.00, 0.01, 0.02, 0.055};
    const auto m = line_matrix(xs);
    const cluster_labels r = dbscan(m, {.epsilon = 0.04, .min_samples = 4});
    // Points 0..2 plus border all within one cluster? Core at 0.02 sees
    // {0.00,0.01,0.02,0.055} -> 4 neighbours -> core; border joins.
    EXPECT_EQ(r.cluster_count, 1u);
    EXPECT_EQ(r.labels[3], r.labels[0]);
}

TEST(Dbscan, ChainingThroughCorePoints) {
    // Points every 0.03: all mutually reachable through neighbours.
    std::vector<double> xs;
    for (int i = 0; i < 10; ++i) {
        xs.push_back(0.03 * i);
    }
    const auto m = line_matrix(xs);
    const cluster_labels r = dbscan(m, {.epsilon = 0.035, .min_samples = 3});
    EXPECT_EQ(r.cluster_count, 1u);
    EXPECT_EQ(r.noise_count(), 0u);
}

TEST(Dbscan, EmptyMatrix) {
    const auto m = dissim::dissimilarity_matrix::from_dense({}, 0);
    const cluster_labels r = dbscan(m, {.epsilon = 0.1, .min_samples = 2});
    EXPECT_EQ(r.cluster_count, 0u);
    EXPECT_TRUE(r.labels.empty());
}

TEST(Dbscan, RejectsInvalidParams) {
    const auto m = line_matrix({0.0, 0.5});
    EXPECT_THROW(dbscan(m, {.epsilon = -0.1, .min_samples = 2}), precondition_error);
    EXPECT_THROW(dbscan(m, {.epsilon = 0.1, .min_samples = 0}), precondition_error);
}

TEST(Dbscan, MembersPartitionNonNoise) {
    const std::vector<double> xs{0.0, 0.01, 0.02, 0.5, 0.51, 0.52, 0.95};
    const auto m = line_matrix(xs);
    const cluster_labels r = dbscan(m, {.epsilon = 0.05, .min_samples = 2});
    const auto members = r.members();
    std::size_t covered = 0;
    std::set<std::size_t> seen;
    for (const auto& cluster : members) {
        for (std::size_t idx : cluster) {
            EXPECT_TRUE(seen.insert(idx).second) << "index in two clusters";
            ++covered;
        }
    }
    EXPECT_EQ(covered + r.noise_count(), xs.size());
}

// Property sweep: structural invariants across random data and parameters.
class DbscanProps : public ::testing::TestWithParam<std::uint64_t> {};

TEST_P(DbscanProps, LabelsAreWellFormed) {
    rng rand(GetParam());
    std::vector<double> xs;
    const std::size_t n = 5 + rand.uniform(0, 60);
    for (std::size_t i = 0; i < n; ++i) {
        xs.push_back(rand.uniform01());
    }
    const auto m = line_matrix(xs);
    const dbscan_params params{rand.uniform_real(0.01, 0.3), 2 + rand.uniform(0, 4)};
    const cluster_labels r = dbscan(m, params);
    ASSERT_EQ(r.labels.size(), n);
    for (int label : r.labels) {
        EXPECT_TRUE(label == kNoise ||
                    (label >= 0 && label < static_cast<int>(r.cluster_count)));
    }
    // Every cluster id in [0, cluster_count) is actually used.
    std::vector<bool> used(r.cluster_count, false);
    for (int label : r.labels) {
        if (label != kNoise) {
            used[static_cast<std::size_t>(label)] = true;
        }
    }
    for (bool u : used) {
        EXPECT_TRUE(u);
    }
    // Every cluster contains at least one core point.
    for (const auto& members : r.members()) {
        bool has_core = false;
        for (std::size_t i : members) {
            std::size_t neighbours = 0;
            for (std::size_t j = 0; j < n; ++j) {
                if (m.at(i, j) <= params.epsilon) {
                    ++neighbours;
                }
            }
            if (neighbours >= params.min_samples) {
                has_core = true;
                break;
            }
        }
        EXPECT_TRUE(has_core);
    }
    // No noise point is within epsilon of enough points to be core.
    for (std::size_t i = 0; i < n; ++i) {
        if (r.labels[i] != kNoise) {
            continue;
        }
        std::size_t neighbours = 0;
        for (std::size_t j = 0; j < n; ++j) {
            if (m.at(i, j) <= params.epsilon) {
                ++neighbours;
            }
        }
        EXPECT_LT(neighbours, params.min_samples);
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, DbscanProps, ::testing::Range<std::uint64_t>(0, 20));

// ---------------------------------------------------------------------------
// Independent oracle

/// Textbook DBSCAN (Ester et al. 1996, the seed-set formulation): straight
/// loops over at(i, j), a seed list that may hold duplicates, clusters
/// numbered in creation order. No prefetch, no bits, no neighborhood source.
std::vector<int> oracle_dbscan(const dissim::dissimilarity_matrix& m, double eps,
                               std::size_t min_samples) {
    constexpr int kUndefined = -2;
    const std::size_t n = m.size();
    const auto range = [&](std::size_t p) {
        std::vector<std::size_t> out;
        for (std::size_t j = 0; j < n; ++j) {
            if (m.at(p, j) <= eps) {
                out.push_back(j);
            }
        }
        return out;
    };
    std::vector<int> labels(n, kUndefined);
    int cluster = 0;
    for (std::size_t p = 0; p < n; ++p) {
        if (labels[p] != kUndefined) {
            continue;
        }
        std::vector<std::size_t> seeds = range(p);
        if (seeds.size() < min_samples) {
            labels[p] = kNoise;
            continue;
        }
        labels[p] = cluster;
        for (std::size_t k = 0; k < seeds.size(); ++k) {
            const std::size_t q = seeds[k];
            if (labels[q] == kNoise) {
                labels[q] = cluster;  // border point
            }
            if (labels[q] != kUndefined) {
                continue;
            }
            labels[q] = cluster;
            const std::vector<std::size_t> more = range(q);
            if (more.size() >= min_samples) {
                seeds.insert(seeds.end(), more.begin(), more.end());
            }
        }
        ++cluster;
    }
    return labels;
}

/// Forwards the queries but none of the bulk ones, so dbscan walks
/// neighbors_within lists from the plain row scan.
class row_scan_source final : public dissim::neighborhood_source {
public:
    explicit row_scan_source(const dissim::dissimilarity_matrix& m) : inner_(m) {}
    std::size_t size() const override { return inner_.size(); }
    double dissimilarity(std::size_t i, std::size_t j) const override {
        return inner_.dissimilarity(i, j);
    }
    std::vector<std::uint32_t> neighbors_within(std::size_t i, double eps) const override {
        return inner_.neighbors_within(i, eps);
    }
    std::size_t knn_cap() const override { return inner_.knn_cap(); }
    std::vector<std::vector<double>> kth_nn_many(std::size_t k_max,
                                                 std::size_t threads) const override {
        return inner_.kth_nn_many(k_max, threads);
    }

private:
    dissim::matrix_neighborhood inner_;
};

/// Epsilons around a cell value v: v itself and one float ulp either side
/// (the precision cells are stored in), clamped at zero.
std::vector<double> epsilons_around(float v) {
    std::vector<double> out{static_cast<double>(v),
                            static_cast<double>(std::nextafter(v, 2.0f))};
    if (v > 0.0f) {
        out.push_back(static_cast<double>(std::nextafter(v, 0.0f)));
    }
    return out;
}

/// Checks dbscan on \p m against the oracle at every (eps, min_samples):
/// the matrix adapter in both layouts with bits prepared, at 1 and 4 lanes,
/// and the row-scan-only source. Returns the number of distinct
/// configurations that had both clusters and noise, so callers can assert
/// the cases were not degenerate.
std::size_t expect_matches_oracle(const std::vector<float>& upper, std::size_t n,
                                  const std::vector<double>& epsilons) {
    using dissim::dissimilarity_matrix;
    using dissim::layout;
    const dissimilarity_matrix dense = dissimilarity_matrix::from_upper(upper, n);
    const dissimilarity_matrix tri =
        dissimilarity_matrix::from_upper(upper, n, layout::triangular);
    std::size_t mixed = 0;
    for (const double eps : epsilons) {
        for (std::size_t min_samples = 1; min_samples <= 5; ++min_samples) {
            const std::vector<int> expected = oracle_dbscan(dense, eps, min_samples);
            const dbscan_params params{eps, min_samples};
            const cluster_labels rows = dbscan(row_scan_source(dense), params);
            EXPECT_EQ(rows.labels, expected) << "row scan, eps " << eps << " ms " << min_samples;
            for (const dissimilarity_matrix* m : {&dense, &tri}) {
                for (const std::size_t lanes : {1u, 4u}) {
                    const dissim::matrix_neighborhood source(*m, lanes);
                    const cluster_labels got = dbscan(source, params);
                    EXPECT_EQ(got.labels, expected)
                        << (m == &dense ? "dense" : "triangular") << " lanes " << lanes
                        << " eps " << eps << " ms " << min_samples;
                }
            }
            const cluster_labels r{expected, rows.cluster_count};
            if (r.cluster_count > 0 && r.noise_count() > 0) {
                ++mixed;
            }
        }
    }
    return mixed;
}

/// Random symmetric matrices whose cells take one of nine levels k/8, so
/// many cells tie exactly at any epsilon taken from a cell. Points fall
/// into planted groups (cells 0..2/8 inside a group, 2/8..8/8 across) or
/// are stray (1/8..8/8 to everything), so the runs see clusters that touch
/// at 2/8, border points and noise.
TEST(DbscanOracle, RandomLevelMatricesMatchEverySource) {
    std::size_t mixed = 0;
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        rng rand(seed);
        const std::size_t n = 30 + rand.uniform(0, 140);
        const std::uint64_t groups = 2 + rand.uniform(0, 4);
        std::vector<std::uint64_t> group(n);
        for (auto& g : group) {
            g = rand.uniform(0, groups);  // == groups: stray
        }
        std::vector<float> upper;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                std::uint64_t level = 0;
                if (group[i] == groups || group[j] == groups) {
                    level = rand.uniform(1, 8);
                } else {
                    level = group[i] == group[j] ? rand.uniform(0, 2) : rand.uniform(2, 8);
                }
                upper.push_back(static_cast<float>(level) / 8.0f);
            }
        }
        std::vector<double> epsilons;
        for (const float v : {0.0f, 0.125f, 0.25f}) {
            const std::vector<double> around = epsilons_around(v);
            epsilons.insert(epsilons.end(), around.begin(), around.end());
        }
        mixed += expect_matches_oracle(upper, n, epsilons);
    }
    EXPECT_GT(mixed, 40u);
}

/// Points on a line at integer positions, d = |x_i - x_j| / 64 (exact in
/// f32, so epsilon sits on cell values and ties are common). A group at
/// base b holds one point at b, a bulk at b+1..b+2 and one point at b+3; a
/// lone point at b+5 sits two from the edges of this group and the next
/// one (base b+7). At epsilon 2/64 and min_samples 4 the edges are core
/// and the lone point is a border point contested by two clusters.
TEST(DbscanOracle, LineClustersWithSharedBordersMatchEverySource) {
    std::size_t mixed = 0;
    std::size_t shared_borders = 0;
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        rng rand(seed);
        std::vector<int> xs;
        const std::size_t groups = 2 + rand.uniform(0, 4);
        for (std::size_t g = 0; g < groups; ++g) {
            const int b = static_cast<int>(7 * g);
            xs.push_back(b);
            for (std::size_t k = 3 + rand.uniform(0, 25); k > 0; --k) {
                xs.push_back(b + 1 + static_cast<int>(rand.uniform(0, 1)));
            }
            xs.push_back(b + 3);
            xs.push_back(b + 5);
        }
        // Shuffle so cluster seeds and borders interleave in index order.
        for (std::size_t k = xs.size(); k > 1; --k) {
            std::swap(xs[k - 1], xs[rand.uniform(0, k - 1)]);
        }
        const std::size_t n = xs.size();
        std::vector<float> upper;
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = i + 1; j < n; ++j) {
                upper.push_back(static_cast<float>(std::abs(xs[i] - xs[j])) / 64.0f);
            }
        }
        std::vector<double> epsilons;
        for (const float v : {1.0f / 64, 2.0f / 64, 3.0f / 64}) {
            const std::vector<double> around = epsilons_around(v);
            epsilons.insert(epsilons.end(), around.begin(), around.end());
        }
        mixed += expect_matches_oracle(upper, n, epsilons);

        // Count points the oracle's two-cluster reach makes contested: a
        // non-core point within epsilon of core points of two clusters.
        const auto m = dissim::dissimilarity_matrix::from_upper(upper, n);
        const double eps = 2.0 / 64;
        const std::size_t min_samples = 4;
        const std::vector<int> labels = oracle_dbscan(m, eps, min_samples);
        const auto is_core = [&](std::size_t p) {
            std::size_t c = 0;
            for (std::size_t j = 0; j < n; ++j) {
                c += m.at(p, j) <= eps ? 1 : 0;
            }
            return c >= min_samples;
        };
        for (std::size_t p = 0; p < n; ++p) {
            std::set<int> reach;
            for (std::size_t j = 0; j < n; ++j) {
                if (j != p && m.at(p, j) <= eps && is_core(j)) {
                    reach.insert(labels[j]);
                }
            }
            shared_borders += !is_core(p) && reach.size() > 1 ? 1 : 0;
        }
    }
    EXPECT_GT(mixed, 60u);
    EXPECT_GT(shared_borders, 10u) << "the corpus must contain contested border points";
}

/// Byte-value corpora scored by the kernel: the matrix adapter and the
/// sparse engine (which rescans past its horizon) against the oracle over
/// the built matrix, with epsilon on a cell value and one ulp either side.
TEST(DbscanOracle, SparseAndMatrixSourcesMatchOnByteCorpora) {
    std::size_t mixed = 0;
    for (std::uint64_t seed = 1; seed <= 4; ++seed) {
        rng rand(seed);
        std::vector<byte_vector> values;
        const std::size_t n = 60 + rand.uniform(0, 80);
        for (std::size_t i = 0; i < n; ++i) {
            // A small alphabet and few lengths, so pairs tie often.
            byte_vector v(2 + rand.uniform(0, 3));
            for (auto& b : v) {
                b = static_cast<std::uint8_t>(16 * rand.uniform(0, 3));
            }
            values.push_back(std::move(v));
        }
        const dissim::dissimilarity_matrix m(values);
        std::vector<float> upper = m.upper_triangle_f32();
        std::vector<float> sorted = upper;
        std::sort(sorted.begin(), sorted.end());
        std::vector<double> epsilons;
        for (const double q : {0.05, 0.15, 0.3}) {
            const float v = sorted[static_cast<std::size_t>(q * static_cast<double>(sorted.size()))];
            const std::vector<double> around = epsilons_around(v);
            epsilons.insert(epsilons.end(), around.begin(), around.end());
        }
        mixed += expect_matches_oracle(upper, n, epsilons);
        for (const std::size_t lanes : {1u, 4u}) {
            dissim::sparse_build_options opts;
            opts.knn_cap = 3;
            opts.threads = lanes;
            const dissim::sparse_neighborhood sparse(values, opts);
            for (const double eps : epsilons) {
                for (std::size_t min_samples = 1; min_samples <= 5; ++min_samples) {
                    EXPECT_EQ(dbscan(sparse, {eps, min_samples}).labels,
                              oracle_dbscan(m, eps, min_samples))
                        << "sparse lanes " << lanes << " eps " << eps << " ms " << min_samples;
                }
            }
        }
    }
    EXPECT_GT(mixed, 20u);
}

}  // namespace
}  // namespace ftc::cluster
