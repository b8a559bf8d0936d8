// Unit tests for segment condensation and the dissimilarity matrix
// (dissim/matrix.hpp).
#include "dissim/matrix.hpp"

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cmath>
#include <limits>
#include <map>
#include <string>

#include "dissim/canberra.hpp"
#include "dissim/kernel.hpp"
#include "obs/obs.hpp"
#include "protocols/registry.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ftc::dissim {
namespace {

using segmentation::segment;

TEST(Condense, DeduplicatesValuesAndCountsOccurrences) {
    const std::vector<byte_vector> messages{
        {0x01, 0x02, 0x01, 0x02},
        {0x01, 0x02, 0x09, 0x09},
    };
    const segmentation::message_segments segs{
        {{0, 0, 2}, {0, 2, 2}},
        {{1, 0, 2}, {1, 2, 2}},
    };
    const unique_segments u = condense(messages, segs);
    ASSERT_EQ(u.size(), 2u);
    // Value {01,02} occurs three times, {09,09} once.
    std::size_t total = 0;
    bool found_triple = false;
    for (std::size_t i = 0; i < u.size(); ++i) {
        total += u.occurrences[i].size();
        if (u.values[i] == byte_vector{0x01, 0x02}) {
            EXPECT_EQ(u.occurrences[i].size(), 3u);
            found_triple = true;
        }
    }
    EXPECT_TRUE(found_triple);
    EXPECT_EQ(total, 4u);
    EXPECT_EQ(u.short_segments, 0u);
}

TEST(Condense, ExcludesShortSegments) {
    const std::vector<byte_vector> messages{{0xaa, 0x01, 0x02}};
    const segmentation::message_segments segs{
        {{0, 0, 1}, {0, 1, 2}},
    };
    const unique_segments u = condense(messages, segs, 2);
    EXPECT_EQ(u.size(), 1u);
    EXPECT_EQ(u.short_segments, 1u);
    EXPECT_EQ(u.values[0], (byte_vector{0x01, 0x02}));
}

TEST(Condense, MinLengthConfigurable) {
    const std::vector<byte_vector> messages{{0xaa, 0x01, 0x02}};
    const segmentation::message_segments segs{
        {{0, 0, 1}, {0, 1, 2}},
    };
    const unique_segments u = condense(messages, segs, 1);
    EXPECT_EQ(u.size(), 2u);
    EXPECT_EQ(u.short_segments, 0u);
}

TEST(Condense, AllShortSegmentsYieldEmptyResult) {
    const std::vector<byte_vector> messages{{0x01, 0x02, 0x03}};
    const segmentation::message_segments segs{
        {{0, 0, 1}, {0, 1, 1}, {0, 2, 1}},
    };
    const unique_segments u = condense(messages, segs, 2);
    EXPECT_EQ(u.size(), 0u);
    EXPECT_TRUE(u.values.empty());
    EXPECT_TRUE(u.occurrences.empty());
    EXPECT_EQ(u.short_segments, 3u);
}

TEST(Condense, DuplicateOnlyTraceCondensesToOneValue) {
    // Every message carries the same two-byte value: one unique segment,
    // with one occurrence per concrete appearance.
    const std::vector<byte_vector> messages{
        {0xca, 0xfe, 0xca, 0xfe},
        {0xca, 0xfe},
        {0xca, 0xfe},
    };
    const segmentation::message_segments segs{
        {{0, 0, 2}, {0, 2, 2}},
        {{1, 0, 2}},
        {{2, 0, 2}},
    };
    const unique_segments u = condense(messages, segs);
    ASSERT_EQ(u.size(), 1u);
    EXPECT_EQ(u.values[0], (byte_vector{0xca, 0xfe}));
    EXPECT_EQ(u.occurrences[0].size(), 4u);
    EXPECT_EQ(u.short_segments, 0u);
}

TEST(Condense, EmptySegmentationYieldsEmptyResult) {
    const std::vector<byte_vector> messages{{0x01, 0x02}};
    const unique_segments u = condense(messages, segmentation::message_segments{});
    EXPECT_EQ(u.size(), 0u);
    EXPECT_EQ(u.short_segments, 0u);
}

TEST(Condense, FullAndWeightedAgreeOnValues) {
    for (const char* protocol : {"DNS", "SMB"}) {
        const protocols::trace t = protocols::generate_trace(protocol, 300, 5);
        const std::vector<byte_vector> messages = segmentation::message_bytes(t);
        const segmentation::message_segments segs = segmentation::segments_from_annotations(t);
        const unique_segments full = condense(messages, segs);
        const unique_segments weighted = condense_weighted(messages, segs);

        // First-occurrence order, from a plain walk over the trace.
        std::vector<byte_vector> first_seen;
        protocols::byte_set seen;
        for (const auto& per_message : segs) {
            for (const segment& seg : per_message) {
                const byte_view b = segmentation::segment_bytes(messages, seg);
                byte_vector v(b.begin(), b.end());
                if (v.size() >= 2 && seen.insert(v).second) {
                    first_seen.push_back(std::move(v));
                }
            }
        }
        ASSERT_GT(first_seen.size(), 10u) << protocol;
        EXPECT_EQ(full.values, first_seen) << protocol;
        EXPECT_EQ(weighted.values, first_seen) << protocol;
        EXPECT_EQ(full.short_segments, weighted.short_segments) << protocol;
        for (std::size_t i = 0; i < full.size(); ++i) {
            ASSERT_EQ(full.occurrence_count(i), weighted.occurrence_count(i)) << protocol;
            for (const segment& seg : full.occurrences[i]) {
                const byte_view b = segmentation::segment_bytes(messages, seg);
                ASSERT_TRUE(std::equal(b.begin(), b.end(), full.values[i].begin(),
                                       full.values[i].end()))
                    << protocol << " value " << i;
            }
        }
    }
}

TEST(Matrix, SymmetricWithZeroDiagonal) {
    const std::vector<byte_vector> values{{1, 2}, {3, 4}, {1, 2, 3}};
    const dissimilarity_matrix m(values);
    ASSERT_EQ(m.size(), 3u);
    for (std::size_t i = 0; i < 3; ++i) {
        EXPECT_DOUBLE_EQ(m.at(i, i), 0.0);
        for (std::size_t j = 0; j < 3; ++j) {
            EXPECT_DOUBLE_EQ(m.at(i, j), m.at(j, i));
        }
    }
}

TEST(Matrix, EntriesMatchDirectComputation) {
    const std::vector<byte_vector> values{{1, 2}, {3, 4}, {1, 2, 3}};
    const dissimilarity_matrix m(values);
    for (std::size_t i = 0; i < values.size(); ++i) {
        for (std::size_t j = 0; j < values.size(); ++j) {
            const double expected =
                i == j ? 0.0
                       : sliding_canberra_dissimilarity(values[i], values[j]);
            EXPECT_NEAR(m.at(i, j), expected, 1e-6);
        }
    }
}

TEST(Matrix, KthNnMatchesBruteForce) {
    rng rand(5);
    std::vector<byte_vector> values;
    for (int i = 0; i < 20; ++i) {
        values.push_back(rand.bytes(2 + rand.uniform(0, 6)));
    }
    const dissimilarity_matrix m(values);
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{5}}) {
        const std::vector<double> knn = m.kth_nn(k);
        ASSERT_EQ(knn.size(), values.size());
        for (std::size_t i = 0; i < values.size(); ++i) {
            std::vector<double> row;
            for (std::size_t j = 0; j < values.size(); ++j) {
                if (j != i) {
                    row.push_back(m.at(i, j));
                }
            }
            std::sort(row.begin(), row.end());
            EXPECT_NEAR(knn[i], row[k - 1], 1e-9) << "i=" << i << " k=" << k;
        }
    }
}

TEST(Matrix, KthNnClampsLargeK) {
    const std::vector<byte_vector> values{{1, 2}, {3, 4}, {5, 6}};
    const dissimilarity_matrix m(values);
    const std::vector<double> knn = m.kth_nn(99);
    ASSERT_EQ(knn.size(), 3u);  // clamped to k = n-1 = 2
}

TEST(Matrix, KthNnRejectsZeroK) {
    const std::vector<byte_vector> values{{1, 2}, {3, 4}};
    const dissimilarity_matrix m(values);
    EXPECT_THROW(m.kth_nn(0), precondition_error);
}

TEST(Matrix, KthNnOnTinyMatrixIsEmpty) {
    const std::vector<byte_vector> one{{1, 2}};
    const dissimilarity_matrix m(one);
    EXPECT_TRUE(m.kth_nn(1).empty());
}

TEST(Matrix, EmptyInputGivesEmptyMatrix) {
    const std::vector<byte_vector> none;
    const dissimilarity_matrix m(none);
    EXPECT_EQ(m.size(), 0u);
    EXPECT_TRUE(m.data().empty());
    EXPECT_TRUE(m.kth_nn(1).empty());
    EXPECT_TRUE(m.kth_nn(5).empty());
    EXPECT_TRUE(m.upper_triangle().empty());
}

TEST(Matrix, KthNnOnSingleElementIsEmptyForAnyK) {
    const std::vector<byte_vector> one{{1, 2}};
    const dissimilarity_matrix m(one);
    EXPECT_TRUE(m.kth_nn(1).empty());
    EXPECT_TRUE(m.kth_nn(2).empty());  // k == n
    EXPECT_TRUE(m.kth_nn(10).empty());
}

TEST(Matrix, KthNnOnTwoElements) {
    // With n = 2 the only neighbour is the other element; every k >= n-1
    // clamps to it.
    const std::vector<byte_vector> values{{1, 2}, {9, 9}};
    const dissimilarity_matrix m(values);
    const double expected = m.at(0, 1);
    ASSERT_GT(expected, 0.0);
    for (std::size_t k : {std::size_t{1}, std::size_t{2}, std::size_t{7}}) {
        const std::vector<double> knn = m.kth_nn(k);
        ASSERT_EQ(knn.size(), 2u) << "k=" << k;
        EXPECT_DOUBLE_EQ(knn[0], expected);
        EXPECT_DOUBLE_EQ(knn[1], expected);
    }
}

TEST(Matrix, KthNnKEqualToNClampsToFurthestNeighbour) {
    const std::vector<byte_vector> values{{1, 2}, {3, 4}, {200, 200}};
    const dissimilarity_matrix m(values);
    const std::vector<double> clamped = m.kth_nn(values.size());  // k = n -> n-1
    const std::vector<double> furthest = m.kth_nn(values.size() - 1);
    ASSERT_EQ(clamped.size(), values.size());
    EXPECT_EQ(clamped, furthest);
}

TEST(Matrix, UpperTriangleHasExpectedSize) {
    const std::vector<byte_vector> values{{1, 2}, {3, 4}, {5, 6}, {7, 8}};
    const dissimilarity_matrix m(values);
    const std::vector<double> tri = m.upper_triangle();
    EXPECT_EQ(tri.size(), 6u);
    for (double d : tri) {
        EXPECT_GE(d, 0.0);
        EXPECT_LE(d, 1.0);
    }
}

/// Fill a freshly allocated block of \p cells floats with NaN and free it,
/// so the matrix allocation that follows likely reuses the same heap chunk
/// and any cell the build leaves unwritten reads back as NaN. The stores
/// are volatile so the compiler cannot drop the dead block.
void poison_heap(std::size_t cells) {
    std::vector<float> block(cells);
    volatile float* p = block.data();
    for (std::size_t k = 0; k < cells; ++k) {
        p[k] = std::numeric_limits<float>::quiet_NaN();
    }
}

TEST(Matrix, DenseBuildWritesEveryCell) {
    rng rand(29);
    for (const std::size_t n : {0u, 1u, 2u, 63u, 64u, 65u, 129u, 181u}) {
        std::vector<byte_vector> values;
        for (std::size_t i = 0; i < n; ++i) {
            values.push_back(rand.bytes(2 + rand() % 9));
        }
        const std::vector<float> serial_upper = dissimilarity_matrix(values).upper_triangle_f32();
        for (const std::size_t threads : {1u, 2u, 4u}) {
            for (const layout storage : {layout::dense, layout::triangular}) {
                SCOPED_TRACE(testing::Message() << "n=" << n << " threads=" << threads
                                                << (storage == layout::dense ? " dense"
                                                                             : " triangular"));
                build_options opts;
                opts.storage = storage;
                opts.threads = threads;
                poison_heap(storage == layout::dense ? n * n : n * (n - (n > 0 ? 1 : 0)) / 2);
                const dissimilarity_matrix m(values, opts);
                const std::vector<float> upper = m.upper_triangle_f32();
                ASSERT_EQ(upper.size(), serial_upper.size());
                for (std::size_t k = 0; k < upper.size(); ++k) {
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(upper[k]),
                              std::bit_cast<std::uint32_t>(serial_upper[k]))
                        << "upper cell " << k;
                }
                const dissimilarity_matrix ref = dissimilarity_matrix::from_upper(upper, n);
                for (std::size_t i = 0; i < n; ++i) {
                    for (std::size_t j = 0; j < n; ++j) {
                        const auto got = static_cast<float>(m.at(i, j));
                        ASSERT_FALSE(std::isnan(got)) << "cell " << i << "," << j;
                        ASSERT_EQ(std::bit_cast<std::uint32_t>(got),
                                  std::bit_cast<std::uint32_t>(ref.data()[i * n + j]))
                            << "cell " << i << "," << j;
                    }
                    ASSERT_EQ(std::bit_cast<std::uint32_t>(static_cast<float>(m.at(i, i))),
                              std::bit_cast<std::uint32_t>(0.0f))
                        << "diagonal " << i;
                }
                if (storage == layout::dense) {
                    for (const float d : m.data()) {
                        ASSERT_FALSE(std::isnan(d));
                    }
                }
            }
        }
    }
}

/// Values of many distinct lengths (1..40 bytes, a few values per length)
/// in shuffled index order, so every length bucket of the row fan-out
/// interleaves its indices with the other buckets'. A small alphabet makes
/// equal-length partners tie and take the equal fast path in full batches.
std::vector<byte_vector> interleaved_length_values() {
    rng rand(41);
    std::vector<byte_vector> values;
    for (std::size_t len = 1; len <= 40; ++len) {
        for (std::size_t k = 0; k < 2 + len % 11; ++k) {
            byte_vector v(len);
            for (auto& b : v) {
                b = static_cast<std::uint8_t>(32 * rand.uniform(0, 7));
            }
            values.push_back(std::move(v));
        }
    }
    for (std::size_t k = values.size(); k > 1; --k) {
        std::swap(values[k - 1], values[rand.uniform(0, k - 1)]);
    }
    return values;
}

TEST(Matrix, RowFanOutMatchesDirectComputationAtAnyLaneCount) {
    const std::vector<byte_vector> values = interleaved_length_values();
    const std::size_t n = values.size();
    ASSERT_EQ(n, 273u);
    // The pinned counters are the LUT backend's (the scalar reference does
    // not prune); every backend computes the same cells.
    const kernel::scoped_backend lut(kernel::backend::lut);
    for (const std::size_t threads : {1u, 2u, 4u}) {
        SCOPED_TRACE(testing::Message() << "threads=" << threads);
        obs::scoped_recorder recorder;
        const dissimilarity_matrix m(values, deadline{}, threads);
        for (std::size_t i = 0; i < n; ++i) {
            for (std::size_t j = 0; j < n; ++j) {
                const float expected =
                    i == j ? 0.0f
                           : static_cast<float>(sliding_canberra_dissimilarity(values[i], values[j]));
                ASSERT_EQ(std::bit_cast<std::uint32_t>(m.data()[i * n + j]),
                          std::bit_cast<std::uint32_t>(expected))
                    << "cell " << i << "," << j;
            }
        }
        // Counts of the parent build's length-sorted fan-out: the pair set
        // and each pair's kernel path are unchanged by the row-local one.
        const std::map<std::string, double> c = recorder.rec().metrics().snapshot().counters;
        EXPECT_EQ(c.at("dissim.kernel.invocations_total"), static_cast<double>(n * (n - 1) / 2));
        EXPECT_EQ(c.at("dissim.kernel.equal_fast_path_total"), 977.0);
        EXPECT_EQ(c.at("dissim.kernel.windows_total"), 507561.0);
        EXPECT_EQ(c.at("dissim.kernel.windows_pruned_total"), 393194.0);
    }
}

TEST(Matrix, DeadlineAborts) {
    rng rand(1);
    std::vector<byte_vector> values;
    for (int i = 0; i < 600; ++i) {
        values.push_back(rand.bytes(16));
    }
    const deadline expired(0.0);
    EXPECT_THROW(dissimilarity_matrix(values, expired), budget_exceeded_error);
}

}  // namespace
}  // namespace ftc::dissim
