// Unit tests for epsilon auto-configuration / Algorithm 1
// (cluster/autoconf.hpp).
#include "cluster/autoconf.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>

#include "dissim/matrix.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ftc::cluster {
namespace {

/// Matrix of points on a line with |x_i - x_j| distances.
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

/// Three well-separated tight blobs: intra-blob spacing 0.002, gaps ~0.3.
std::vector<double> blobs_data(rng& rand, std::size_t per_blob) {
    std::vector<double> xs;
    for (double center : {0.1, 0.45, 0.8}) {
        for (std::size_t i = 0; i < per_blob; ++i) {
            xs.push_back(center + rand.uniform_real(-0.01, 0.01));
        }
    }
    return xs;
}

TEST(Autoconf, EpsilonSeparatesWellSeparatedBlobs) {
    rng rand(1);
    const std::vector<double> xs = blobs_data(rand, 30);
    const auto m = line_matrix(xs);
    const autoconf_result cfg = auto_configure(m);
    // The knee must land between the intra-blob scale (points are within
    // 0.02 of their blob center) and the inter-blob gaps (~0.33).
    EXPECT_GT(cfg.epsilon, 0.0);
    EXPECT_LT(cfg.epsilon, 0.3);
    // DBSCAN with the auto parameters must never mix points of different
    // blobs into one cluster (blobs may fray into sub-clusters and noise,
    // but cross-blob contamination would mean epsilon overshot the gap).
    const cluster_labels r = dbscan(m, {cfg.epsilon, cfg.min_samples});
    EXPECT_GE(r.cluster_count, 3u);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        for (std::size_t j = i + 1; j < xs.size(); ++j) {
            if (r.labels[i] != kNoise && r.labels[i] == r.labels[j]) {
                EXPECT_LT(std::abs(xs[i] - xs[j]), 0.1)
                    << "points from different blobs share a cluster";
            }
        }
    }
}

TEST(Autoconf, MinSamplesIsLogOfCount) {
    rng rand(2);
    const auto m = line_matrix(blobs_data(rand, 30));  // n = 90
    const autoconf_result cfg = auto_configure(m);
    EXPECT_EQ(cfg.min_samples,
              static_cast<std::size_t>(std::lround(std::log(90.0))));  // 4 or 5
}

TEST(Autoconf, CandidateRangeFollowsLogN) {
    rng rand(3);
    const auto m = line_matrix(blobs_data(rand, 40));  // n = 120, ln ~ 4.8
    const autoconf_result cfg = auto_configure(m);
    ASSERT_FALSE(cfg.candidates.empty());
    EXPECT_EQ(cfg.candidates.front().k, 2u);
    EXPECT_EQ(cfg.candidates.back().k,
              static_cast<std::size_t>(std::lround(std::log(120.0))));
    // Selected k is one of the candidates.
    bool found = false;
    for (const k_candidate& c : cfg.candidates) {
        if (c.k == cfg.selected_k) {
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(Autoconf, RejectsTinyMatrices) {
    const auto m = line_matrix({0.0, 1.0});
    EXPECT_THROW(auto_configure(m), precondition_error);
}

TEST(Autoconf, DegenerateEqualDistancesFallsBack) {
    // All points identical: kNN distances all zero -> no knee.
    const std::vector<double> xs(10, 0.5);
    const auto m = line_matrix(xs);
    const autoconf_result cfg = auto_configure(m);
    EXPECT_FALSE(cfg.knee_found);
    EXPECT_DOUBLE_EQ(cfg.epsilon, autoconf_options{}.fallback_epsilon);
}

TEST(Autoconf, TrimmedSearchReturnsSmallerEpsilon) {
    rng rand(4);
    const auto m = line_matrix(blobs_data(rand, 30));
    const autoconf_result cfg = auto_configure(m);
    const autoconf_result trimmed = auto_configure_trimmed(m, cfg.epsilon);
    EXPECT_LT(trimmed.epsilon, cfg.epsilon);
    EXPECT_GT(trimmed.epsilon, 0.0);
}

TEST(AutoCluster, SeparatesBlobsWithoutCrossContamination) {
    rng rand(5);
    const std::vector<double> xs = blobs_data(rand, 30);
    const auto m = line_matrix(xs);
    const auto_cluster_result r = auto_cluster(m);
    EXPECT_GE(r.labels.cluster_count, 3u);
    for (std::size_t i = 0; i < xs.size(); ++i) {
        for (std::size_t j = i + 1; j < xs.size(); ++j) {
            if (r.labels.labels[i] != kNoise && r.labels.labels[i] == r.labels.labels[j]) {
                EXPECT_LT(std::abs(xs[i] - xs[j]), 0.1);
            }
        }
    }
}

TEST(AutoCluster, OversizeGuardWalksDownToSplitNestedScales) {
    // Two-scale structure: 5 micro-blobs (spacing 0.001 inside) arranged in
    // a macro-blob region 0.1..0.22 (micro gaps ~0.03), plus a far blob at
    // 0.9. A knee at the macro scale would lump >60% into one cluster; the
    // guard must walk down to the micro scale.
    rng rand(6);
    std::vector<double> xs;
    for (double center : {0.10, 0.13, 0.16, 0.19, 0.22}) {
        for (int i = 0; i < 12; ++i) {
            xs.push_back(center + rand.uniform_real(-0.0005, 0.0005));
        }
    }
    for (int i = 0; i < 12; ++i) {
        xs.push_back(0.9 + rand.uniform_real(-0.0005, 0.0005));
    }
    const auto m = line_matrix(xs);
    const auto_cluster_result r = auto_cluster(m);
    // Regardless of which knee was found first, the guard must leave no
    // cluster holding more than 60% of non-noise points.
    const std::size_t non_noise = m.size() - r.labels.noise_count();
    std::vector<std::size_t> sizes(r.labels.cluster_count, 0);
    for (int l : r.labels.labels) {
        if (l != kNoise) {
            ++sizes[static_cast<std::size_t>(l)];
        }
    }
    for (std::size_t s : sizes) {
        EXPECT_LE(static_cast<double>(s), 0.6 * static_cast<double>(non_noise) + 1.0);
    }
    EXPECT_GE(r.labels.cluster_count, 2u);
}

TEST(AutoCluster, ReconfigurationCountBounded) {
    rng rand(7);
    std::vector<double> xs;
    for (int i = 0; i < 60; ++i) {
        xs.push_back(rand.uniform01());  // uniform: no clean knee anywhere
    }
    const auto m = line_matrix(xs);
    const auto_cluster_result r = auto_cluster(m, {}, 0.6, 4);
    EXPECT_LE(r.reconfigurations, 4u);
}

TEST(AutoCluster, UndersizeGuardEscalatesMicroKnee) {
    // 30 tight pairs (intra-pair distance ~0.0005) scattered 0.03 apart:
    // the sharpest knee sits at the pair scale, where min_samples (=4) can
    // never be met — plain DBSCAN returns zero clusters. The undersize
    // guard must escalate epsilon until clusters form.
    rng rand(11);
    std::vector<double> xs;
    for (int p = 0; p < 30; ++p) {
        const double center = 0.03 * p + rand.uniform_real(-0.002, 0.002);
        xs.push_back(center);
        xs.push_back(center + 0.0005);
    }
    const auto m = line_matrix(xs);
    const auto_cluster_result r = auto_cluster(m);
    EXPECT_GE(r.labels.cluster_count, 1u);
    EXPECT_LT(r.labels.noise_count(), xs.size());
}

TEST(AutoCluster, OversizeWalkNeverAcceptsZeroClusters) {
    // Whatever the guard does, the result must keep at least one cluster
    // when the initial configuration produced one.
    rng rand(12);
    std::vector<double> xs;
    for (int i = 0; i < 80; ++i) {
        xs.push_back(rand.uniform01() * 0.2);  // one diffuse blob
    }
    const auto m = line_matrix(xs);
    const auto_cluster_result r = auto_cluster(m);
    EXPECT_GE(r.labels.cluster_count, 1u);
}

/// Counts the k-NN queries auto_cluster makes; every query is forwarded.
class counting_source final : public dissim::neighborhood_source {
public:
    explicit counting_source(const dissim::neighborhood_source& inner) : inner_(inner) {}
    std::size_t size() const override { return inner_.size(); }
    double dissimilarity(std::size_t i, std::size_t j) const override {
        return inner_.dissimilarity(i, j);
    }
    std::vector<std::uint32_t> neighbors_within(std::size_t i, double eps) const override {
        return inner_.neighbors_within(i, eps);
    }
    void prepare_range(double eps) const override { inner_.prepare_range(eps); }
    std::span<const std::uint64_t> prepared_row(std::size_t i, double eps) const override {
        return inner_.prepared_row(i, eps);
    }
    void release_range() const override { inner_.release_range(); }
    std::size_t knn_cap() const override { return inner_.knn_cap(); }
    std::vector<std::vector<double>> kth_nn_many(std::size_t k_max,
                                                 std::size_t threads) const override {
        ++kth_nn_many_calls;
        return inner_.kth_nn_many(k_max, threads);
    }

    mutable std::size_t kth_nn_many_calls = 0;

private:
    const dissim::neighborhood_source& inner_;
};

std::uint64_t label_hash(const std::vector<int>& labels) {
    std::uint64_t h = 0xcbf29ce484222325ULL;  // FNV-1a over label + 1
    for (const int l : labels) {
        h ^= static_cast<std::uint64_t>(static_cast<std::int64_t>(l) + 1);
        h *= 0x100000001b3ULL;
    }
    return h;
}

TEST(AutoCluster, OneKnnExtractionServesEveryReconfiguration) {
    // SMB ground-truth segments (300 uniques): the oversize guard walks
    // down three times. Epsilon, labels and the walk length are pinned
    // from the implementation that re-extracted the curves at every step.
    const protocols::trace t = protocols::generate_trace("SMB", 100, 7);
    const dissim::unique_segments unique = dissim::condense(
        segmentation::message_bytes(t), segmentation::segments_from_annotations(t));
    const dissim::dissimilarity_matrix m(unique.values);
    for (const std::size_t threads : {1u, 4u}) {
        const dissim::matrix_neighborhood matrix(m, threads);
        const counting_source source(matrix);
        autoconf_options options;
        options.threads = threads;
        const auto_cluster_result r = auto_cluster(source, options);
        EXPECT_EQ(source.kth_nn_many_calls, 1u);
        EXPECT_EQ(r.reconfigurations, 3u);
        EXPECT_EQ(r.config.epsilon, 0x1.016257d74e536p-2);
        EXPECT_EQ(r.labels.cluster_count, 6u);
        EXPECT_EQ(r.labels.noise_count(), 53u);
        EXPECT_EQ(label_hash(r.labels.labels), 0xf1bce5c4720bdcfeULL);
    }
}

TEST(AutoCluster, UndersizeGuardReadsTheExtractedCurves) {
    // The micro-knee input of UndersizeGuardEscalatesMicroKnee: the guard's
    // median min_samples-NN distance comes from the one batch. Values are
    // pinned from the implementation that queried that curve separately.
    rng rand(11);
    std::vector<double> xs;
    for (int p = 0; p < 30; ++p) {
        const double center = 0.03 * p + rand.uniform_real(-0.002, 0.002);
        xs.push_back(center);
        xs.push_back(center + 0.0005);
    }
    const auto m = line_matrix(xs);
    const dissim::matrix_neighborhood matrix(m);
    const counting_source source(matrix);
    const auto_cluster_result r = auto_cluster(source);
    EXPECT_EQ(source.kth_nn_many_calls, 1u);
    EXPECT_EQ(r.reconfigurations, 1u);
    EXPECT_EQ(r.config.epsilon, 0x1.f3289d77b931cp-6);
    EXPECT_EQ(r.labels.cluster_count, 9u);
    EXPECT_EQ(label_hash(r.labels.labels), 0xb972d199d6b43eacULL);
}

TEST(AutoCluster, PrecomputedCurvesSkipTheExtraction) {
    rng rand(5);
    const auto m = line_matrix(blobs_data(rand, 30));
    const dissim::matrix_neighborhood matrix(m);
    const std::vector<std::vector<double>> curves = matrix.kth_nn_many(knn_k_max(m.size()));
    const counting_source source(matrix);
    autoconf_options options;
    options.precomputed_knn = &curves;
    const auto_cluster_result with = auto_cluster(source, options);
    EXPECT_EQ(source.kth_nn_many_calls, 0u);
    const auto_cluster_result without = auto_cluster(m);
    EXPECT_EQ(with.config.epsilon, without.config.epsilon);
    EXPECT_EQ(with.labels.labels, without.labels.labels);
}

TEST(Autoconf, SmoothedCurvesAreMonotone) {
    rng rand(8);
    const auto m = line_matrix(blobs_data(rand, 25));
    const autoconf_result cfg = auto_configure(m);
    for (const k_candidate& c : cfg.candidates) {
        for (std::size_t i = 1; i < c.smoothed.size(); ++i) {
            EXPECT_GE(c.smoothed[i], c.smoothed[i - 1]);
        }
        EXPECT_GE(c.sharpness, 0.0);
    }
}

}  // namespace
}  // namespace ftc::cluster
