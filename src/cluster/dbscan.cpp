#include "cluster/dbscan.hpp"

#include <bit>
#include <cstdint>
#include <span>

#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "util/check.hpp"

namespace ftc::cluster {

std::size_t cluster_labels::noise_count() const {
    std::size_t n = 0;
    for (int l : labels) {
        if (l == kNoise) {
            ++n;
        }
    }
    return n;
}

std::vector<std::vector<std::size_t>> cluster_labels::members() const {
    std::vector<std::vector<std::size_t>> out(cluster_count);
    for (std::size_t i = 0; i < labels.size(); ++i) {
        if (labels[i] != kNoise) {
            out[static_cast<std::size_t>(labels[i])].push_back(i);
        }
    }
    return out;
}

cluster_labels dbscan(const dissim::neighborhood_source& source, const dbscan_params& params) {
    expects(params.epsilon >= 0.0, "dbscan: epsilon must be non-negative");
    expects(params.min_samples >= 1, "dbscan: min_samples must be at least 1");

    obs::span sp("cluster.dbscan");
    const std::size_t n = source.size();
    const double eps = params.epsilon;
    sp.count("n", n);
    cluster_labels result;
    std::vector<int>& labels = result.labels;
    labels.assign(n, kNoise);
    // Every point's neighbor set is read below, all at this epsilon — so
    // the source may do the whole sweep's range work now, in bulk. With
    // bits prepared, expansion walks them a word at a time.
    source.prepare_range(eps);
    const bool bits = n > 0 && !source.prepared_row(0, eps).empty();

    // A point is labelled when it is first reached and stacked for its
    // core test then, so each point is stacked at most once and the list
    // walk queries each point exactly once. unlabeled holds
    // labels[j] == kNoise as bits, for the word walk.
    std::vector<std::uint64_t> unlabeled((n + 63) / 64, ~std::uint64_t{0});
    if (n % 64 != 0) {
        unlabeled.back() = (std::uint64_t{1} << (n % 64)) - 1;
    }
    const auto label = [&](std::size_t q, int cluster_id) {
        labels[q] = cluster_id;
        unlabeled[q / 64] &= ~(std::uint64_t{1} << (q % 64));
    };
    std::vector<std::uint32_t> stack;
    std::span<const std::uint64_t> row;  // the bit walk's current row
    std::vector<std::uint32_t> list;     // the list walk's current neighbor set
    std::vector<bool> not_core(bits ? 0 : n, false);  // list walk: already read
    std::size_t core_points = 0;

    // Reads p's neighbor set into row or list; true when p is a core point.
    const auto read_core = [&](std::size_t p) {
        if (bits) {
            // Count set bits until min_samples is reached: a core point
            // usually stops after a few words.
            row = source.prepared_row(p, eps);
            std::size_t count = 0;
            for (std::size_t w = 0; w < row.size() && count < params.min_samples; ++w) {
                count += static_cast<std::size_t>(std::popcount(row[w]));
            }
            return count >= params.min_samples;
        }
        if (not_core[p]) {
            return false;
        }
        list = source.neighbors_within(p, eps);
        not_core[p] = list.size() < params.min_samples;
        return !not_core[p];
    };
    // Labels and stacks the unlabelled neighbors of the core point just read.
    const auto expand = [&](int cluster_id) {
        ++core_points;
        if (!bits) {
            for (const std::uint32_t q : list) {
                if (labels[q] == kNoise) {
                    label(q, cluster_id);
                    stack.push_back(q);
                }
            }
            return;
        }
        for (std::size_t w = 0; w < row.size(); ++w) {
            std::uint64_t fresh = row[w] & unlabeled[w];
            unlabeled[w] &= ~fresh;
            for (; fresh != 0; fresh &= fresh - 1) {
                const auto q = static_cast<std::uint32_t>(w * 64 + std::countr_zero(fresh));
                labels[q] = cluster_id;
                stack.push_back(q);
            }
        }
    };

    // Clusters are seeded in index order, each by the lowest unlabelled
    // core point, and grow to the closure described in dbscan.hpp.
    int next_cluster = 0;
    obs::progress_stage("cluster.dbscan", n);
    for (std::size_t i = 0; i < n; ++i) {
        obs::progress_add(1);
        if (labels[i] != kNoise || !read_core(i)) {
            continue;  // a non-core point stays noise unless reached later
        }
        const int cluster_id = next_cluster++;
        label(i, cluster_id);
        expand(cluster_id);
        while (!stack.empty()) {
            const std::size_t q = stack.back();
            stack.pop_back();
            if (read_core(q)) {
                expand(cluster_id);
            }
        }
    }
    source.release_range();
    result.cluster_count = static_cast<std::size_t>(next_cluster);
    if (sp.enabled()) {
        sp.count("clusters", result.cluster_count);
        sp.count("noise", result.noise_count());
        sp.count("core_points", core_points);
        sp.count("bits", bits ? 1 : 0);
        obs::counter_add("cluster.dbscan_runs_total", 1.0);
    }
    return result;
}

}  // namespace ftc::cluster
