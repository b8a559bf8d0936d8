#include "dissim/matrix.hpp"

#include <algorithm>
#include <numeric>

#include "dissim/kernel.hpp"
#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ftc::dissim {

namespace {

/// Storage behind one unique_segments instance, for its mem::charge: the
/// value byte payloads plus per-value container headers, plus either the
/// occurrence structs (full form) or the multiplicity words (weighted).
std::uint64_t unique_footprint_bytes(const unique_segments& u) {
    std::uint64_t bytes = 0;
    for (const byte_vector& v : u.values) {
        bytes += v.size() + sizeof(byte_vector);
    }
    if (u.occurrences_elided) {
        bytes += u.multiplicities.size() * sizeof(std::uint32_t);
    } else {
        for (const auto& occs : u.occurrences) {
            bytes += occs.size() * sizeof(segmentation::segment) +
                     sizeof(std::vector<segmentation::segment>);
        }
    }
    return bytes;
}

/// Dedup walk shared by both condensation forms: every segment of at least
/// \p min_length bytes, in trace order, is looked up in an open-addressed
/// digest index over out.values — slots hold value indices, probed linearly
/// from the FNV-1a64 digest of the bytes, byte-compared on hit (digests
/// dedup candidates, bytes decide). A value is appended at first sight, so
/// out.values is the same vector in the same first-occurrence order for
/// both forms. \p visit(index, first_sight, seg) records the occurrence.
template <typename Visit>
void dedup_segments(const std::vector<byte_vector>& messages,
                    const segmentation::message_segments& segs, std::size_t min_length,
                    unique_segments& out, Visit&& visit) {
    constexpr std::uint32_t kEmpty = 0xffffffffu;
    std::vector<std::uint32_t> slots(64, kEmpty);

    const auto digest_of = [](byte_view bytes) {
        std::uint64_t h = 1469598103934665603ull;  // FNV-1a 64 offset basis
        for (const std::uint8_t b : bytes) {
            h = (h ^ b) * 1099511628211ull;  // FNV-1a 64 prime
        }
        return h;
    };

    const auto rehash = [&] {
        std::vector<std::uint32_t> grown(slots.size() * 2, kEmpty);
        const std::size_t mask = grown.size() - 1;
        for (const std::uint32_t idx : slots) {
            if (idx == kEmpty) {
                continue;
            }
            std::size_t at = digest_of(byte_view{out.values[idx]}) & mask;
            while (grown[at] != kEmpty) {
                at = (at + 1) & mask;
            }
            grown[at] = idx;
        }
        slots.swap(grown);
    };

    for (const std::vector<segmentation::segment>& per_message : segs) {
        for (const segmentation::segment& seg : per_message) {
            if (seg.length < min_length) {
                ++out.short_segments;
                continue;
            }
            const byte_view bytes = segmentation::segment_bytes(messages, seg);
            if (2 * (out.values.size() + 1) > slots.size()) {
                rehash();
            }
            const std::size_t mask = slots.size() - 1;
            std::size_t at = digest_of(bytes) & mask;
            while (true) {
                const std::uint32_t idx = slots[at];
                if (idx == kEmpty) {
                    slots[at] = static_cast<std::uint32_t>(out.values.size());
                    out.values.emplace_back(bytes.begin(), bytes.end());
                    visit(out.values.size() - 1, true, seg);
                    break;
                }
                if (out.values[idx].size() == bytes.size() &&
                    std::equal(bytes.begin(), bytes.end(), out.values[idx].begin())) {
                    visit(idx, false, seg);
                    break;
                }
                at = (at + 1) & mask;
            }
        }
    }
}

}  // namespace

unique_segments condense(const std::vector<byte_vector>& messages,
                         const segmentation::message_segments& segs,
                         std::size_t min_length) {
    unique_segments out;
    dedup_segments(messages, segs, min_length, out,
                   [&](std::size_t idx, bool first, const segmentation::segment& seg) {
                       if (first) {
                           out.occurrences.emplace_back();
                       }
                       out.occurrences[idx].push_back(seg);
                   });
    out.footprint = mem::charge(unique_footprint_bytes(out), "dissim.unique");
    return out;
}

unique_segments condense_weighted(const std::vector<byte_vector>& messages,
                                  const segmentation::message_segments& segs,
                                  std::size_t min_length) {
    unique_segments out;
    out.occurrences_elided = true;
    dedup_segments(messages, segs, min_length, out,
                   [&](std::size_t idx, bool first, const segmentation::segment&) {
                       if (first) {
                           out.multiplicities.push_back(1);
                       } else {
                           ++out.multiplicities[idx];
                       }
                   });
    obs::counter_add("mem.dedup_condensations_total", 1.0);
    out.footprint = mem::charge(unique_footprint_bytes(out), "dissim.unique.weighted");
    return out;
}

namespace {

/// Publish one block's kernel counters through ftc::obs (no-op without a
/// recorder; called once per work block, never per pair).
void publish_kernel_stats(const kernel::stats& st) {
    obs::counter_add("dissim.kernel.invocations_total",
                     static_cast<double>(st.invocations));
    obs::counter_add("dissim.kernel.equal_fast_path_total",
                     static_cast<double>(st.equal_fast_path));
    obs::counter_add("dissim.kernel.windows_total",
                     static_cast<double>(st.windows_total));
    obs::counter_add("dissim.kernel.windows_pruned_total",
                     static_cast<double>(st.windows_pruned));
}

/// Per-row pending kernel batches: partners accumulate per path (equal /
/// sliding length) and flush through the batch entry points. Each pair's
/// value is bitwise the single-call kernel result, so batch composition
/// only changes how the independent computations overlap in the pipeline.
struct row_batcher {
    static_assert(kernel::kEqualBatch == kernel::kSlideBatch);

    struct pending_batch {
        std::size_t cells[kernel::kEqualBatch];  // flat storage index
        byte_view views[kernel::kEqualBatch];
        double out[kernel::kEqualBatch];
        std::size_t count = 0;
    };

    byte_view a;
    float* data = nullptr;
    kernel::stats* stp = nullptr;
    pending_batch equal_pend;
    pending_batch slide_pend;

    void flush(pending_batch& pend) {
        if (pend.count == 0) {
            return;
        }
        if (&pend == &equal_pend) {
            kernel::equal_dissimilarity_batch(a, pend.views, pend.count, pend.out, stp);
        } else {
            kernel::sliding_dissimilarity_batch(a, pend.views, pend.count, pend.out, stp);
        }
        for (std::size_t k = 0; k < pend.count; ++k) {
            data[pend.cells[k]] = static_cast<float>(pend.out[k]);
        }
        pend.count = 0;
    }

    void add(byte_view b, std::size_t cell) {
        pending_batch& pend = a.size() == b.size() ? equal_pend : slide_pend;
        pend.cells[pend.count] = cell;
        pend.views[pend.count] = b;
        if (++pend.count == kernel::kEqualBatch) {
            flush(pend);
        }
    }

    void finish_row() {
        flush(equal_pend);
        flush(slide_pend);
    }
};

/// Every index grouped by value length: bucket b holds, ascending, the
/// indices whose values have the b-th smallest distinct length. Built once
/// per matrix; each row starts every bucket at its first index above the
/// row, so a row's sliding partners arrive one length at a time and
/// consecutive kernel calls share one length pair and loop bounds. On the
/// dense scale points this takes 14-23% off the matrix build against a
/// plain j = i+1..n walk (CHANGES.md has the A/B).
struct length_buckets {
    std::vector<std::uint32_t> members;  ///< bucket after bucket
    std::vector<std::size_t> ends;       ///< ends[b]: one past bucket b in members
};

length_buckets bucket_by_length(std::span<const byte_vector> values) {
    length_buckets out;
    out.members.resize(values.size());
    std::iota(out.members.begin(), out.members.end(), 0u);
    std::stable_sort(out.members.begin(), out.members.end(),
                     [&](std::uint32_t a, std::uint32_t b) {
                         return values[a].size() < values[b].size();
                     });
    for (std::size_t k = 1; k <= out.members.size(); ++k) {
        if (k == out.members.size() ||
            values[out.members[k]].size() != values[out.members[k - 1]].size()) {
            out.ends.push_back(k);
        }
    }
    return out;
}

/// Score row i against every partner j > i, bucket by bucket, storing pair
/// (i, j) at first_cell + (j - i - 1): every store lands in row i's own
/// cells, whichever layout \p first_cell (the cell of (i, i+1)) indexes.
void fan_out_row(row_batcher& batch, std::span<const byte_vector> values,
                 const length_buckets& buckets, std::size_t i, std::size_t first_cell) {
    batch.a = byte_view{values[i]};
    const auto members = buckets.members.begin();
    std::size_t begin = 0;
    for (const std::size_t end : buckets.ends) {
        for (auto it = std::upper_bound(members + static_cast<long>(begin),
                                        members + static_cast<long>(end), i);
             it != members + static_cast<long>(end); ++it) {
            batch.add(byte_view{values[*it]}, first_cell + (*it - i - 1));
        }
        begin = end;
    }
    batch.finish_row();
}

/// Rows (and columns) per block of the dense mirror: a 64×64 float tile is
/// 16 KiB, so a tile's reads and writes both stay cache-resident.
constexpr std::size_t kMirrorBlock = 64;

/// Complete a row-major n*n matrix whose strict upper triangle is final:
/// block row b (rows [64b, 64b+64)) stores its diagonal zeros, then copies
/// its upper cells tile by tile into the lower cells of columns
/// [64b, 64b+64). Block rows write disjoint cells and read only upper cells,
/// which nothing here writes, so they run on \p lanes concurrently and the
/// result is bitwise identical at any lane count. Returns the block count.
std::size_t mirror_upper(float* data, std::size_t n, std::size_t lanes) {
    const std::size_t blocks = (n + kMirrorBlock - 1) / kMirrorBlock;
    util::parallel_for(blocks, 1, lanes, [&](std::size_t begin, std::size_t end) {
        for (std::size_t b = begin; b < end; ++b) {
            const std::size_t ib = b * kMirrorBlock;
            const std::size_t ie = std::min(ib + kMirrorBlock, n);
            for (std::size_t i = ib; i < ie; ++i) {
                data[i * n + i] = 0.0f;
            }
            for (std::size_t jb = ib; jb < n; jb += kMirrorBlock) {
                const std::size_t je = std::min(jb + kMirrorBlock, n);
                for (std::size_t i = ib; i < ie; ++i) {
                    for (std::size_t j = std::max(jb, i + 1); j < je; ++j) {
                        data[j * n + i] = data[i * n + j];
                    }
                }
            }
        }
    });
    return blocks;
}

build_options dense_options(std::size_t threads) {
    build_options opts;
    opts.threads = threads;
    return opts;
}

}  // namespace

dissimilarity_matrix::dissimilarity_matrix(std::span<const byte_vector> values,
                                           const deadline& dl, std::size_t threads)
    : dissimilarity_matrix(values, dense_options(threads), dl) {}

dissimilarity_matrix::dissimilarity_matrix(std::span<const byte_vector> values,
                                           const build_options& opts, const deadline& dl)
    : n_(values.size()), layout_(opts.storage) {
    obs::span sp("dissim.matrix");
    sp.count("n", n_);
    sp.count("pairs", n_ * (n_ - (n_ > 0 ? 1 : 0)) / 2);
    sp.count("kernel_backend", static_cast<std::uint64_t>(kernel::active()));
    sp.count("triangular", layout_ == layout::triangular ? 1 : 0);
    // The footprint-dominant allocation of the whole pipeline: tracked, so
    // an active memory governor turns "this matrix cannot fit" into
    // ftc::memory_budget_exceeded_error here instead of an OOM kill later.
    // Left unwritten (mem::buffer): each build writes every cell once, so
    // the pages are first touched by the lanes that fill them.
    if (layout_ == layout::dense) {
        data_.resize(n_ * n_);
        build_dense(values, dl, opts.threads);
    } else {
        data_.resize(n_ * (n_ - (n_ > 0 ? 1 : 0)) / 2);
        build_triangular(values, opts, dl);
    }
}

void dissimilarity_matrix::build_dense(std::span<const byte_vector> values,
                                       const deadline& dl, std::size_t threads) {
    // Upper-triangle fan-out over index rows: row i scores i against every
    // j > i and stores only into its own cells, so each unordered pair has
    // one writer and the matrix is bitwise identical at any thread count.
    // The values do not depend on which of a pair owns the row: equal
    // lengths sum a symmetric term table, and the sliding path orders each
    // pair shorter/longer itself. Row i carries n-1-i pairs, so blocks are
    // handed out dynamically and the cheap late rows balance the lanes.
    const length_buckets buckets = bucket_by_length(values);
    const std::size_t lanes = util::resolve_threads(threads);
    const std::size_t grain = std::max<std::size_t>(1, n_ / (8 * lanes));
    obs::progress_stage("dissim.matrix", n_);
    util::parallel_for(n_, grain, lanes, [&](std::size_t begin, std::size_t end) {
        kernel::stats st;
        row_batcher batch;
        batch.data = data_.data();
        batch.stp = obs::current() != nullptr ? &st : nullptr;
        for (std::size_t i = begin; i < end; ++i) {
            if ((i - begin) % 32 == 0) {
                dl.check("dissimilarity matrix");
            }
            fan_out_row(batch, values, buckets, i, i * n_ + i + 1);
            obs::progress_add(1);
        }
        if (batch.stp != nullptr) {
            publish_kernel_stats(st);
        }
    });
    // The blocked mirror then writes the diagonal and the lower triangle
    // on every lane.
    obs::span mirror("dissim.matrix.mirror");
    mirror.count("blocks", mirror_upper(data_.data(), n_, lanes));
}

void dissimilarity_matrix::build_triangular(std::span<const byte_vector> values,
                                            const build_options& opts, const deadline& dl) {
    // The dense build's row fan-out, tile by tile: tile cells are one
    // contiguous run of the upper triangle, so a completed tile can be
    // spilled (opts.on_tile) as final bytes the moment its last row lands.
    // Rows inside a tile fan out across lanes; each row's cells have
    // exactly one writer and the values are the dense build's, cell for
    // cell — only the layout differs.
    const length_buckets buckets = bucket_by_length(values);
    const std::size_t lanes = util::resolve_threads(opts.threads);
    const std::size_t tile_rows = opts.tile_rows == 0 ? (n_ > 0 ? n_ : 1) : opts.tile_rows;
    obs::progress_stage("dissim.matrix", n_);
    for (std::size_t row_begin = 0; row_begin < n_; row_begin += tile_rows) {
        const std::size_t row_end = std::min(row_begin + tile_rows, n_);
        const std::size_t grain =
            std::max<std::size_t>(1, (row_end - row_begin) / (8 * lanes));
        util::parallel_for(row_end - row_begin, grain, lanes,
                           [&](std::size_t begin, std::size_t end) {
            kernel::stats st;
            row_batcher batch;
            batch.data = data_.data();
            batch.stp = obs::current() != nullptr ? &st : nullptr;
            for (std::size_t r = begin; r < end; ++r) {
                const std::size_t i = row_begin + r;
                if (r % 32 == 0) {
                    dl.check("dissimilarity matrix");
                }
                fan_out_row(batch, values, buckets, i, tri_offset(i));
                obs::progress_add(1);
            }
            if (batch.stp != nullptr) {
                publish_kernel_stats(st);
            }
        });
        dl.check("dissimilarity matrix tile");
        if (opts.on_tile) {
            const std::size_t begin = tri_offset(row_begin);
            const std::size_t end = tri_offset(row_end);
            opts.on_tile(row_begin, row_end, n_,
                         std::span<const float>(data_.data() + begin, end - begin));
        }
    }
}

dissimilarity_matrix dissimilarity_matrix::from_dense(std::span<const double> dense,
                                                      std::size_t n) {
    expects(dense.size() == n * n, "from_dense: matrix must be n*n");
    dissimilarity_matrix m;
    m.n_ = n;
    m.data_.resize(n * n);
    for (std::size_t i = 0; i < n; ++i) {
        expects(dense[i * n + i] == 0.0, "from_dense: diagonal must be zero");
        for (std::size_t j = 0; j < n; ++j) {
            expects(dense[i * n + j] == dense[j * n + i], "from_dense: matrix must be symmetric");
            m.data_[i * n + j] = static_cast<float>(dense[i * n + j]);
        }
    }
    return m;
}

dissimilarity_matrix dissimilarity_matrix::from_upper(std::span<const float> upper,
                                                      std::size_t n, layout storage) {
    expects(upper.size() == n * (n - (n > 0 ? 1 : 0)) / 2,
            "from_upper: need exactly n*(n-1)/2 entries");
    dissimilarity_matrix m;
    m.n_ = n;
    m.layout_ = storage;
    for (const float d : upper) {
        // The sliding-Canberra range guarantee; a checkpoint restoring
        // values outside it is damaged in a way the digest cannot see
        // (e.g. forged), and NaNs would poison DBSCAN comparisons.
        expects(d >= 0.0f && d <= 1.0f, "from_upper: entry outside [0, 1]");
    }
    if (storage == layout::triangular) {
        m.data_.assign(upper.begin(), upper.end());
        return m;
    }
    // Upper rows in place (contiguous runs), then the build's own mirror.
    m.data_.resize(n * n);
    std::size_t r = 0;
    for (std::size_t i = 0; i < n; ++i) {
        std::copy_n(upper.data() + r, n - 1 - i, m.data_.data() + i * n + i + 1);
        r += n - 1 - i;
    }
    mirror_upper(m.data_.data(), n, 1);
    return m;
}

std::vector<float> dissimilarity_matrix::upper_triangle_f32() const {
    if (layout_ == layout::triangular) {
        return std::vector<float>(data_.begin(), data_.end());
    }
    std::vector<float> out;
    out.reserve(n_ * (n_ - (n_ > 0 ? 1 : 0)) / 2);
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = i + 1; j < n_; ++j) {
            out.push_back(data_[i * n_ + j]);
        }
    }
    return out;
}

std::span<const float> dissimilarity_matrix::data() const {
    expects(layout_ == layout::dense,
            "data: raw row-major storage exists only in the dense layout");
    return {data_.data(), data_.size()};
}

void dissimilarity_matrix::gather_row(std::size_t i, float* out) const {
    std::size_t w = 0;
    if (layout_ == layout::dense) {
        for (std::size_t j = 0; j < n_; ++j) {
            if (j != i) {
                out[w++] = data_[i * n_ + j];
            }
        }
        return;
    }
    // Column i of rows above (one strided pick per row), then the
    // contiguous tail of row i.
    for (std::size_t j = 0; j < i; ++j) {
        out[w++] = data_[tri_cell(j, i)];
    }
    const std::size_t base = tri_offset(i);
    for (std::size_t j = i + 1; j < n_; ++j) {
        out[w++] = data_[base + (j - i - 1)];
    }
}

std::vector<double> dissimilarity_matrix::kth_nn(std::size_t k, std::size_t threads) const {
    expects(k >= 1, "kth_nn: k must be at least 1");
    if (n_ < 2) {
        return {};
    }
    obs::span sp("dissim.kth_nn");
    sp.count("n", n_);
    sp.count("k", k);
    const std::size_t kk = std::min(k, n_ - 1);
    // Each row selects its k-th neighbour independently into out[i]; the
    // per-lane scratch row keeps nth_element off shared state.
    std::vector<double> out(n_, 0.0);
    util::parallel_for(n_, 64, threads, [&](std::size_t begin, std::size_t end) {
        std::vector<float> row(n_ - 1);
        for (std::size_t i = begin; i < end; ++i) {
            gather_row(i, row.data());
            std::nth_element(row.begin(), row.begin() + static_cast<long>(kk - 1), row.end());
            out[i] = static_cast<double>(row[kk - 1]);
        }
    });
    return out;
}

std::vector<std::vector<double>> dissimilarity_matrix::kth_nn_many(std::size_t k_max,
                                                                   std::size_t threads) const {
    expects(k_max >= 1, "kth_nn_many: k_max must be at least 1");
    if (n_ < 2) {
        return std::vector<std::vector<double>>(k_max);
    }
    obs::span sp("dissim.kth_nn_many");
    sp.count("n", n_);
    sp.count("k_max", k_max);
    const std::size_t kk_max = std::min(k_max, n_ - 1);
    // The curve batch is the second-largest buffer of the dissimilarity
    // stage (k_max curves of n doubles); charge it so the governor sees the
    // spike while it exists.
    const mem::charge curves_charge(
        static_cast<std::uint64_t>(k_max) * n_ * sizeof(double), "dissim.knn_curves");
    std::vector<std::vector<double>> out(k_max, std::vector<double>(n_, 0.0));
    // One row scan serves every k: partially sorting the kk_max smallest
    // neighbours yields each k-th order statistic — the same float values
    // nth_element finds in kth_nn, so curves are bitwise identical to
    // k_max individual extractions at a fraction of the scans. Each lane
    // writes only column i of each curve, so any thread count produces the
    // same result.
    obs::progress_stage("dissim.knn", n_);
    util::parallel_for(n_, 64, threads, [&](std::size_t begin, std::size_t end) {
        std::vector<float> row(n_ - 1);
        for (std::size_t i = begin; i < end; ++i) {
            gather_row(i, row.data());
            std::partial_sort(row.begin(), row.begin() + static_cast<long>(kk_max), row.end());
            for (std::size_t k = 1; k <= k_max; ++k) {
                out[k - 1][i] = static_cast<double>(row[std::min(k, n_ - 1) - 1]);
            }
            obs::progress_add(1);
        }
    });
    return out;
}

std::vector<double> dissimilarity_matrix::upper_triangle() const {
    std::vector<double> out;
    out.reserve(n_ * (n_ - (n_ > 0 ? 1 : 0)) / 2);
    if (layout_ == layout::triangular) {
        for (const float d : data_) {
            out.push_back(static_cast<double>(d));
        }
        return out;
    }
    for (std::size_t i = 0; i < n_; ++i) {
        for (std::size_t j = i + 1; j < n_; ++j) {
            out.push_back(static_cast<double>(data_[i * n_ + j]));
        }
    }
    return out;
}

}  // namespace ftc::dissim
