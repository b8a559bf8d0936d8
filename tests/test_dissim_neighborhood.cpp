// Unit tests of matrix_neighborhood's range prefetch (dissim/neighborhood.hpp):
// after prepare_range(eps), every prepared_row(i, eps) must hold exactly the
// plain matrix row scan's set — for dense and triangular storage, at 1 and 4
// lanes, and at the epsilons where a float/double comparison could slip
// (zero, a cell's exact value and one ulp either side of it in both
// precisions, and beyond the [0, 1] cell range). A query at any other
// epsilon must get no bits, never stale ones.
#include "dissim/neighborhood.hpp"

#include <gtest/gtest.h>

#include <cmath>
#include <cstdint>
#include <limits>
#include <span>
#include <vector>

#include "cluster/dbscan.hpp"
#include "dissim/matrix.hpp"
#include "util/rng.hpp"

namespace ftc::dissim {
namespace {

std::vector<byte_vector> random_values(std::size_t n, std::uint64_t seed) {
    rng rand(seed);
    std::vector<byte_vector> values;
    values.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        byte_vector v(2 + rand() % 9);
        for (auto& b : v) {
            b = static_cast<std::uint8_t>(rand());
        }
        values.push_back(std::move(v));
    }
    return values;
}

/// The row scan DBSCAN historically ran: ascending j, widened f32 cell
/// compared in double.
std::vector<std::uint32_t> row_scan(const dissimilarity_matrix& m, std::size_t i, double eps) {
    std::vector<std::uint32_t> out;
    for (std::size_t j = 0; j < m.size(); ++j) {
        if (m.at(i, j) <= eps) {
            out.push_back(static_cast<std::uint32_t>(j));
        }
    }
    return out;
}

/// Epsilons at which a prefetch built on a float threshold could disagree
/// with the double row scan: around the cell (i, j) of \p m.
std::vector<double> probe_epsilons(const dissimilarity_matrix& m, std::size_t i,
                                   std::size_t j) {
    const double cell = m.at(i, j);
    const float cell_f = static_cast<float>(cell);
    constexpr double kInf = std::numeric_limits<double>::infinity();
    constexpr float kInfF = std::numeric_limits<float>::infinity();
    return {0.0,
            1.0,
            1.5,
            1e300,
            kInf,
            cell,
            std::nextafter(cell, kInf),
            std::nextafter(cell, -kInf),
            static_cast<double>(std::nextafter(cell_f, kInfF)),
            static_cast<double>(std::nextafter(cell_f, -kInfF))};
}

/// 150 points: two full 64-bit words per bit row plus a partial one.
class PreparedRange : public ::testing::TestWithParam<layout> {
protected:
    static constexpr std::size_t kN = 150;

    dissimilarity_matrix build() const {
        build_options opts;
        opts.storage = GetParam();
        return dissimilarity_matrix(random_values(kN, 5), opts);
    }
};

TEST_P(PreparedRange, EqualsRowScanForEveryPoint) {
    const dissimilarity_matrix m = build();
    // Probe around a mid-row cell and a cell in the partial last word.
    std::vector<double> eps = probe_epsilons(m, 3, 70);
    for (const double e : probe_epsilons(m, 140, 149)) {
        eps.push_back(e);
    }
    for (const std::size_t lanes : {1u, 4u}) {
        const matrix_neighborhood source(m, lanes);
        for (const double e : eps) {
            source.prepare_range(e);
            ASSERT_TRUE(source.range_prepared(e)) << "eps " << e;
            for (std::size_t i = 0; i < kN; ++i) {
                const std::vector<std::uint32_t> expected = row_scan(m, i, e);
                ASSERT_EQ(source.neighbors_within(i, e), expected)
                    << "lanes " << lanes << " eps " << e << " point " << i;
                // The bit row DBSCAN walks holds the same set.
                const std::span<const std::uint64_t> row = source.prepared_row(i, e);
                ASSERT_EQ(row.size(), (kN + 63) / 64);
                std::vector<std::uint32_t> set;
                for (std::uint32_t j = 0; j < kN; ++j) {
                    if ((row[j / 64] >> (j % 64)) & 1u) {
                        set.push_back(j);
                    }
                }
                ASSERT_EQ(set, expected)
                    << "lanes " << lanes << " eps " << e << " point " << i;
            }
        }
    }
}

TEST_P(PreparedRange, OtherEpsilonIsNeverServedFromStaleBits) {
    const dissimilarity_matrix m = build();
    const matrix_neighborhood source(m, 4);
    const double prepared = m.at(10, 20);
    source.prepare_range(prepared);
    for (const double e : {0.0, std::nextafter(prepared, 2.0), std::nextafter(prepared, -1.0),
                           prepared * 0.5, 1.0}) {
        ASSERT_FALSE(source.range_prepared(e));
        for (std::size_t i = 0; i < kN; ++i) {
            ASSERT_EQ(source.neighbors_within(i, e), row_scan(m, i, e)) << "eps " << e;
            ASSERT_TRUE(source.prepared_row(i, e).empty()) << "eps " << e;
        }
    }
    // A new sweep replaces the bits; releasing drops them.
    source.prepare_range(0.25);
    EXPECT_FALSE(source.range_prepared(prepared));
    EXPECT_EQ(source.neighbors_within(10, prepared), row_scan(m, 10, prepared));
    source.release_range();
    EXPECT_FALSE(source.range_prepared(0.25));
    EXPECT_TRUE(source.prepared_row(7, 0.25).empty());
    EXPECT_EQ(source.neighbors_within(7, 0.25), row_scan(m, 7, 0.25));
}

TEST_P(PreparedRange, RowIndexOutOfRangeIsAContractError) {
    const dissimilarity_matrix m = build();
    const matrix_neighborhood source(m);
    source.prepare_range(0.25);
    EXPECT_THROW(source.prepared_row(kN, 0.25), precondition_error);
    EXPECT_THROW(source.prepared_row(kN, 0.5), precondition_error);
}

TEST_P(PreparedRange, NegativeEpsilonStaysOnTheRowScan) {
    const dissimilarity_matrix m = build();
    const matrix_neighborhood source(m);
    source.prepare_range(-0.5);
    EXPECT_FALSE(source.range_prepared(-0.5));
    EXPECT_TRUE(source.neighbors_within(0, -0.5).empty());
}

/// Forwards every query except the bulk ones, so dbscan runs on the plain
/// row scan.
class row_scan_source final : public neighborhood_source {
public:
    explicit row_scan_source(const dissimilarity_matrix& m) : inner_(m) {}
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
    matrix_neighborhood inner_;
};

TEST_P(PreparedRange, DbscanLabelsEqualTheRowScanRun) {
    const dissimilarity_matrix m = build();
    const row_scan_source reference(m);
    for (const double eps : {0.15, 0.25, 0.3}) {
        const cluster::cluster_labels expected = cluster::dbscan(reference, {eps, 4});
        ASSERT_GT(expected.cluster_count, 0u) << "eps " << eps;
        ASSERT_GT(expected.noise_count(), 0u) << "eps " << eps;
        for (const std::size_t lanes : {1u, 4u}) {
            const matrix_neighborhood source(m, lanes);
            const cluster::cluster_labels got = cluster::dbscan(source, {eps, 4});
            EXPECT_EQ(got.labels, expected.labels) << "eps " << eps << " lanes " << lanes;
            EXPECT_EQ(got.cluster_count, expected.cluster_count);
            EXPECT_FALSE(source.range_prepared(eps)) << "dbscan must release its sweep";
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Layouts, PreparedRange,
                         ::testing::Values(layout::dense, layout::triangular),
                         [](const ::testing::TestParamInfo<layout>& info) {
                             return info.param == layout::dense ? std::string("Dense")
                                                                : std::string("Triangular");
                         });

}  // namespace
}  // namespace ftc::dissim
