// Tests of graceful degradation under memory pressure (DESIGN.md §11):
// every rung of the ladder — weighted dedup, triangular/tiled matrix
// storage, the typed out-of-budget exit — must leave clustering output
// bitwise identical to the unpressured run, or fail with a typed error
// carrying partial progress. Never a crash, never a different answer.
#include <gtest/gtest.h>

#include <cstring>
#include <filesystem>
#include <vector>

#include "ckpt/manager.hpp"
#include "cluster/autoconf.hpp"
#include "core/pipeline.hpp"
#include "dissim/matrix.hpp"
#include "mem/mem.hpp"
#include "obs/obs.hpp"
#include "protocols/registry.hpp"
#include "segmentation/segment.hpp"
#include "util/check.hpp"
#include "util/diag.hpp"
#include "util/rng.hpp"

namespace ftc {
namespace {

namespace fs = std::filesystem;

std::vector<byte_vector> random_values(std::size_t n, std::uint64_t seed) {
    rng rng(seed);
    std::vector<byte_vector> values;
    values.reserve(n);
    for (std::size_t i = 0; i < n; ++i) {
        byte_vector v(2 + (rng() % 7));
        for (auto& b : v) {
            b = static_cast<std::uint8_t>(rng());
        }
        values.push_back(std::move(v));
    }
    return values;
}

struct scenario {
    std::vector<byte_vector> messages;
    segmentation::message_segments segments;
};

scenario make_scenario(const char* protocol = "DNS", std::size_t count = 80) {
    const protocols::trace t = protocols::generate_trace(protocol, count, 7);
    return {segmentation::message_bytes(t), segmentation::segments_from_annotations(t)};
}

/// A trace with heavy value duplication: every message is a run of 2-byte
/// segments drawn from a small pool, so the occurrence lists dwarf both the
/// value storage and the (tiny) matrix — the shape that trips rung 1.
scenario make_duplicated_scenario(std::size_t message_count = 100,
                                  std::size_t segments_per_message = 20,
                                  std::size_t pool = 30) {
    rng rng(11);
    scenario s;
    for (std::size_t m = 0; m < message_count; ++m) {
        byte_vector msg;
        std::vector<segmentation::segment> segs;
        for (std::size_t k = 0; k < segments_per_message; ++k) {
            const auto value = static_cast<std::uint16_t>(rng() % pool * 2654435761u);
            segs.push_back({m, msg.size(), 2});
            msg.push_back(static_cast<std::uint8_t>(value >> 8));
            msg.push_back(static_cast<std::uint8_t>(value));
        }
        s.messages.push_back(std::move(msg));
        s.segments.push_back(std::move(segs));
    }
    return s;
}

/// A trace that is almost all *unique* values: the n×n matrix dwarfs every
/// other allocation, giving the budget tests wide, deterministic margins.
scenario make_unique_scenario(std::size_t message_count = 200,
                              std::size_t segments_per_message = 2) {
    rng rng(13);
    scenario s;
    for (std::size_t m = 0; m < message_count; ++m) {
        byte_vector msg;
        std::vector<segmentation::segment> segs;
        for (std::size_t k = 0; k < segments_per_message; ++k) {
            const std::size_t len = 4 + (rng() % 5);
            segs.push_back({m, msg.size(), len});
            for (std::size_t b = 0; b < len; ++b) {
                msg.push_back(static_cast<std::uint8_t>(rng()));
            }
        }
        s.messages.push_back(std::move(msg));
        s.segments.push_back(std::move(segs));
    }
    return s;
}

/// What "identical clustering" means, detached from the pipeline_result so
/// the baseline's tracked storage can be freed before the pressured run.
struct labels_snapshot {
    std::vector<byte_vector> values;
    std::vector<std::size_t> occurrence_counts;
    double epsilon = 0.0;
    std::size_t min_samples = 0;
    std::vector<int> dbscan_labels;
    std::vector<int> final_labels;
    std::size_t cluster_count = 0;
    std::uint64_t peak_bytes = 0;  ///< tracked peak of the producing run
};

labels_snapshot snapshot_run(const scenario& s, const core::pipeline_options& opt = {}) {
    mem::reset_peak();
    const core::pipeline_result r = core::analyze_segments(s.messages, s.segments, opt);
    labels_snapshot snap;
    snap.values = r.unique.values;
    for (std::size_t i = 0; i < r.unique.size(); ++i) {
        snap.occurrence_counts.push_back(r.unique.occurrence_count(i));
    }
    snap.epsilon = r.clustering.config.epsilon;
    snap.min_samples = r.clustering.config.min_samples;
    snap.dbscan_labels = r.clustering.labels.labels;
    snap.final_labels = r.final_labels.labels;
    snap.cluster_count = r.final_labels.cluster_count;
    snap.peak_bytes = mem::peak_bytes();
    return snap;
}

void expect_identical(const labels_snapshot& a, const labels_snapshot& b) {
    EXPECT_EQ(a.values, b.values);
    EXPECT_EQ(a.occurrence_counts, b.occurrence_counts);
    EXPECT_EQ(a.epsilon, b.epsilon);
    EXPECT_EQ(a.min_samples, b.min_samples);
    EXPECT_EQ(a.dbscan_labels, b.dbscan_labels);
    EXPECT_EQ(a.final_labels, b.final_labels);
    EXPECT_EQ(a.cluster_count, b.cluster_count);
}

// --- Rung 1: weighted dedup ------------------------------------------------

TEST(CondenseWeighted, MatchesFullCondenseValuesAndCounts) {
    const scenario s = make_scenario();
    const dissim::unique_segments full = dissim::condense(s.messages, s.segments);
    const dissim::unique_segments weighted =
        dissim::condense_weighted(s.messages, s.segments);

    ASSERT_TRUE(weighted.occurrences_elided);
    ASSERT_FALSE(full.occurrences_elided);
    // Identical values in the identical first-occurrence order: everything
    // downstream (matrix, curves, labels) is bitwise unchanged.
    ASSERT_EQ(weighted.values, full.values);
    EXPECT_TRUE(weighted.occurrences.empty());
    ASSERT_EQ(weighted.multiplicities.size(), full.size());
    for (std::size_t i = 0; i < full.size(); ++i) {
        EXPECT_EQ(weighted.occurrence_count(i), full.occurrence_count(i)) << "value " << i;
    }
    EXPECT_EQ(weighted.total_occurrences(), full.total_occurrences());
    EXPECT_EQ(weighted.short_segments, full.short_segments);
}

TEST(CondenseWeighted, UsesLessTrackedMemoryThanFull) {
    const scenario s = make_duplicated_scenario();
    const dissim::unique_segments full = dissim::condense(s.messages, s.segments);
    const dissim::unique_segments weighted =
        dissim::condense_weighted(s.messages, s.segments);
    EXPECT_LT(weighted.footprint.bytes(), full.footprint.bytes());
}

// --- Rung 2: triangular / tiled matrix storage -----------------------------

TEST(TriangularLayout, BitwiseIdenticalToDense) {
    const std::vector<byte_vector> values = random_values(60, 42);
    const dissim::dissimilarity_matrix dense(values);
    dissim::build_options opts;
    opts.storage = dissim::layout::triangular;
    const dissim::dissimilarity_matrix tri(values, opts);

    ASSERT_EQ(tri.size(), dense.size());
    ASSERT_EQ(tri.storage(), dissim::layout::triangular);
    const std::vector<float> upper_dense = dense.upper_triangle_f32();
    const std::vector<float> upper_tri = tri.upper_triangle_f32();
    ASSERT_EQ(upper_dense.size(), upper_tri.size());
    EXPECT_EQ(0, std::memcmp(upper_dense.data(), upper_tri.data(),
                             upper_dense.size() * sizeof(float)));
    for (std::size_t i = 0; i < dense.size(); ++i) {
        for (std::size_t j = 0; j < dense.size(); ++j) {
            ASSERT_EQ(tri.at(i, j), dense.at(i, j)) << "(" << i << "," << j << ")";
        }
    }
}

TEST(TriangularLayout, KnnCurvesMatchDense) {
    const std::vector<byte_vector> values = random_values(40, 9);
    const dissim::dissimilarity_matrix dense(values);
    dissim::build_options opts;
    opts.storage = dissim::layout::triangular;
    const dissim::dissimilarity_matrix tri(values, opts);
    EXPECT_EQ(tri.kth_nn_many(10), dense.kth_nn_many(10));
    EXPECT_EQ(tri.kth_nn(3), dense.kth_nn(3));
    EXPECT_EQ(tri.upper_triangle(), dense.upper_triangle());
}

TEST(TriangularLayout, TiledBuildCoversTriangleInOrder) {
    const std::vector<byte_vector> values = random_values(31, 5);
    dissim::build_options plain;
    plain.storage = dissim::layout::triangular;
    const dissim::dissimilarity_matrix reference(values, plain);

    std::vector<float> spilled;
    std::size_t next_row = 0;
    dissim::build_options tiled;
    tiled.storage = dissim::layout::triangular;
    tiled.tile_rows = 7;  // deliberately not dividing 31
    tiled.on_tile = [&](std::size_t row_begin, std::size_t row_end, std::size_t n,
                        std::span<const float> cells) {
        EXPECT_EQ(row_begin, next_row);  // seamless row chaining
        EXPECT_EQ(n, values.size());
        std::size_t expected = 0;
        for (std::size_t r = row_begin; r < row_end; ++r) {
            expected += n - 1 - r;
        }
        EXPECT_EQ(cells.size(), expected);
        spilled.insert(spilled.end(), cells.begin(), cells.end());
        next_row = row_end;
    };
    const dissim::dissimilarity_matrix built(values, tiled);

    EXPECT_EQ(next_row, values.size());
    const std::vector<float> upper = reference.upper_triangle_f32();
    ASSERT_EQ(spilled.size(), upper.size());
    EXPECT_EQ(0, std::memcmp(spilled.data(), upper.data(), upper.size() * sizeof(float)));
    EXPECT_EQ(built.upper_triangle_f32(), upper);
}

TEST(TriangularLayout, FromUpperRoundTripsBothLayouts) {
    const std::vector<byte_vector> values = random_values(20, 3);
    const dissim::dissimilarity_matrix dense(values);
    const std::vector<float> upper = dense.upper_triangle_f32();
    const dissim::dissimilarity_matrix as_tri =
        dissim::dissimilarity_matrix::from_upper(upper, values.size(),
                                                 dissim::layout::triangular);
    const dissim::dissimilarity_matrix as_dense =
        dissim::dissimilarity_matrix::from_upper(upper, values.size());
    EXPECT_EQ(as_tri.upper_triangle_f32(), upper);
    EXPECT_EQ(as_dense.upper_triangle_f32(), upper);
    EXPECT_EQ(as_tri.storage(), dissim::layout::triangular);
    EXPECT_EQ(as_dense.storage(), dissim::layout::dense);
}

// --- The ladder end to end -------------------------------------------------

TEST(MemDegrade, TriangularRungPreservesClusteringBitwise) {
    const scenario s = make_scenario("DNS", 100);
    const labels_snapshot baseline = snapshot_run(s);
    const std::uint64_t n = baseline.values.size();
    const std::uint64_t dense_bytes = n * n * sizeof(float);
    ASSERT_GT(baseline.peak_bytes, dense_bytes);

    // A budget the dense matrix cannot fit under but the degraded run can:
    // the triangular layout alone returns half the dense bytes, so a cap a
    // quarter-matrix below the dense peak forces rung 2 with room to spare.
    core::pipeline_options opt;
    opt.max_memory = static_cast<std::size_t>(baseline.peak_bytes - dense_bytes / 4);
    const labels_snapshot degraded = snapshot_run(s, opt);

    expect_identical(baseline, degraded);
    EXPECT_LE(degraded.peak_bytes, opt.max_memory);
}

TEST(MemDegrade, DedupRungPreservesClusteringBitwise) {
    // Occurrence lists dominate this trace (2000 concrete segments, ~30
    // unique values), so a cap below their footprint — but far above the
    // tiny matrix — forces exactly rung 1.
    const scenario s = make_duplicated_scenario();
    const std::uint64_t occurrence_bytes =
        100 * 20 * sizeof(segmentation::segment);  // what the full form would charge
    const labels_snapshot baseline = snapshot_run(s);
    ASSERT_GT(baseline.peak_bytes, occurrence_bytes);

    core::pipeline_options opt;
    opt.max_memory = static_cast<std::size_t>(baseline.peak_bytes - occurrence_bytes / 2);
    mem::reset_peak();
    const core::pipeline_result degraded = core::analyze_segments(s.messages, s.segments, opt);
    EXPECT_TRUE(degraded.unique.occurrences_elided);
    labels_snapshot snap;
    snap.values = degraded.unique.values;
    for (std::size_t i = 0; i < degraded.unique.size(); ++i) {
        snap.occurrence_counts.push_back(degraded.unique.occurrence_count(i));
    }
    snap.epsilon = degraded.clustering.config.epsilon;
    snap.min_samples = degraded.clustering.config.min_samples;
    snap.dbscan_labels = degraded.clustering.labels.labels;
    snap.final_labels = degraded.final_labels.labels;
    snap.cluster_count = degraded.final_labels.cluster_count;
    snap.peak_bytes = baseline.peak_bytes;  // not under test here
    expect_identical(baseline, snap);
}

// --- The dense range prefetch is an optimization, never a rung ----------

/// Range prefetches (dissim::matrix_neighborhood::prepare_range) recorded.
std::size_t prefetch_spans(const obs::scoped_recorder& scoped) {
    std::size_t count = 0;
    for (const obs::span_record& rec : scoped.rec().trace().spans) {
        count += rec.name == "dissim.matrix.prefetch" ? 1 : 0;
    }
    return count;
}

TEST(MemDegrade, RangePrefetchIsSkippedWhenItsBitsDoNotFit) {
    // Clustering without refinement: once the dense matrix stands, the
    // only tracked allocations left are the k-NN curve batch and the range
    // bits, and the bits are larger. A cap one byte below the uncapped peak
    // leaves headroom for everything but the bits.
    const scenario s = make_unique_scenario(500);
    core::pipeline_options opt;
    opt.apply_refinement = false;
    labels_snapshot baseline;
    std::size_t uncapped_prefetches = 0;
    {
        const obs::scoped_recorder scoped;
        baseline = snapshot_run(s, opt);
        uncapped_prefetches = prefetch_spans(scoped);
    }
    const std::uint64_t n = baseline.values.size();
    const std::uint64_t bits = n * ((n + 63) / 64) * sizeof(std::uint64_t);
    ASSERT_GT(bits, cluster::knn_k_max(n) * n * sizeof(double));

    opt.max_memory = static_cast<std::size_t>(baseline.peak_bytes - 1);
    labels_snapshot capped;
    std::size_t capped_prefetches = 0;
    {
        const obs::scoped_recorder scoped;
        capped = snapshot_run(s, opt);
        capped_prefetches = prefetch_spans(scoped);
    }
    expect_identical(baseline, capped);
    EXPECT_LE(capped.peak_bytes, opt.max_memory);
    EXPECT_GT(uncapped_prefetches, 0u);
    EXPECT_EQ(capped_prefetches, 0u);
}

TEST(MemDegrade, ImpossibleBudgetFailsWithTypedPartialProgress) {
    const scenario s = make_scenario("DNS", 60);
    core::pipeline_options opt;
    opt.max_memory = 64;  // nothing real fits under 64 bytes
    try {
        core::analyze_segments(s.messages, s.segments, opt);
        FAIL() << "expected memory_budget_exceeded_error";
    } catch (const memory_budget_exceeded_error& e) {
        EXPECT_FALSE(e.partial_report().empty());
    }
    EXPECT_EQ(mem::governor::active(), nullptr);  // unwound cleanly
}

TEST(MemDegrade, TiledSpillResumesBitwiseIdentical) {
    const scenario s = make_unique_scenario();
    const fs::path dir = fs::temp_directory_path() / "ftc_test_mem_degrade_spill";
    fs::remove_all(dir);

    const labels_snapshot baseline = snapshot_run(s);
    const std::uint64_t n = baseline.values.size();
    const std::uint64_t dense_bytes = n * n * sizeof(float);
    ASSERT_GT(baseline.peak_bytes, dense_bytes);
    // The reference upper triangle the spilled tiles must reassemble into.
    const std::vector<float> reference_upper = [&] {
        const dissim::unique_segments u = dissim::condense(s.messages, s.segments);
        return dissim::dissimilarity_matrix(u.values).upper_triangle_f32();
    }();

    core::pipeline_options opt;
    opt.max_memory = static_cast<std::size_t>(baseline.peak_bytes - dense_bytes / 4);
    const ckpt::options_fingerprint fp = ckpt::fingerprint(opt, "true", 7);
    {
        ckpt::checkpoint_manager manager(dir, fp);
        manager.on_segments(s.messages, s.segments);
        core::pipeline_options observed = opt;
        observed.observer = &manager;
        core::pipeline_seed seed;
        seed.segments = s.segments;
        const core::pipeline_result pressured =
            core::analyze_seeded(s.messages, nullptr, std::move(seed), observed);
        manager.mark_complete();
        EXPECT_EQ(pressured.final_labels.labels, baseline.final_labels);
    }
    // The pressured build must have spilled at least one tile.
    ASSERT_TRUE(fs::exists(dir / ckpt::checkpoint_manager::tile_file(0)));

    // Resume under the same pressure: the spilled tiles reassemble into the
    // same matrix (bitwise) and the restored run reproduces the baseline.
    diag::error_sink sink(diag::policy::strict);
    ckpt::checkpoint_manager manager(dir, fp);
    const mem::governor governor(opt.max_memory);
    ckpt::restored_state restored = manager.load(s.messages, sink);
    ASSERT_TRUE(restored.seed.matrix.has_value());
    EXPECT_EQ(restored.seed.matrix->storage(), dissim::layout::triangular);
    EXPECT_EQ(restored.seed.matrix->upper_triangle_f32(), reference_upper);
    const core::pipeline_result resumed = core::analyze_seeded(
        restored.has_segments() ? restored.messages : s.messages, nullptr,
        std::move(restored.seed), opt);
    EXPECT_EQ(resumed.final_labels.labels, baseline.final_labels);
    EXPECT_EQ(resumed.final_labels.cluster_count, baseline.cluster_count);
    fs::remove_all(dir);
}

}  // namespace
}  // namespace ftc
