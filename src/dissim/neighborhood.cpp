#include "dissim/neighborhood.hpp"

#include <algorithm>
#include <cmath>
#include <limits>

#include "obs/obs.hpp"
#include "obs/progress.hpp"
#include "util/check.hpp"
#include "util/thread_pool.hpp"

namespace ftc::dissim {

namespace {

/// The largest float <= \p epsilon (epsilon >= 0). For every float c,
/// double(c) <= epsilon iff c <= float_floor(epsilon): any float <= epsilon
/// is at most the largest one, and that one is itself <= epsilon. Comparing
/// f32 cells against it therefore reproduces the row scan's widened double
/// comparison bit for bit.
float float_floor(double epsilon) {
    constexpr float kMax = std::numeric_limits<float>::max();
    if (epsilon >= static_cast<double>(kMax)) {
        return std::isinf(epsilon) ? std::numeric_limits<float>::infinity() : kMax;
    }
    const float f = static_cast<float>(epsilon);
    return static_cast<double>(f) > epsilon ? std::nextafter(f, 0.0f) : f;
}

/// Bit b set iff cells[b] <= limit, for b < len <= 64. The compares go to
/// bytes first (a loop the compiler vectorizes); multiplying eight 0/1
/// bytes by 0x0102040810204080 then carries byte j's bit, alone, into bit
/// 56 + j, so each top byte is eight mask bits.
std::uint64_t within_mask(const float* cells, std::size_t len, float limit) {
    unsigned char hit[64] = {};
    for (std::size_t b = 0; b < len; ++b) {
        hit[b] = cells[b] <= limit ? 1 : 0;
    }
    std::uint64_t mask = 0;
    for (unsigned k = 0; k < 8; ++k) {
        std::uint64_t bytes = 0;
        for (unsigned j = 0; j < 8; ++j) {
            bytes |= static_cast<std::uint64_t>(hit[8 * k + j]) << (8 * j);
        }
        mask |= ((bytes * 0x0102040810204080ULL) >> 56) << (8 * k);
    }
    return mask;
}

}  // namespace

const char* neighborhood_mode_name(neighborhood_mode mode) {
    switch (mode) {
        case neighborhood_mode::dense:
            return "dense";
        case neighborhood_mode::sparse:
            return "sparse";
        case neighborhood_mode::auto_:
            return "auto";
    }
    return "auto";
}

neighborhood_mode parse_neighborhood_mode(std::string_view text) {
    if (text == "dense") {
        return neighborhood_mode::dense;
    }
    if (text == "sparse") {
        return neighborhood_mode::sparse;
    }
    if (text == "auto") {
        return neighborhood_mode::auto_;
    }
    throw precondition_error(message("unknown neighborhood mode '", text,
                                     "' (expected dense, sparse or auto)"));
}

void neighborhood_source::pair_block(std::span<const std::size_t> rows,
                                     std::span<const std::size_t> cols,
                                     std::span<float> out) const {
    expects(out.size() == rows.size() * cols.size(),
            "pair_block: output must hold rows x cols cells");
    for (std::size_t r = 0; r < rows.size(); ++r) {
        for (std::size_t c = 0; c < cols.size(); ++c) {
            // Exact: every source stores or computes f32 values.
            out[r * cols.size() + c] = static_cast<float>(dissimilarity(rows[r], cols[c]));
        }
    }
}

std::vector<std::uint32_t> matrix_neighborhood::neighbors_within(std::size_t i,
                                                                 double epsilon) const {
    expects(i < matrix_.size(), "neighbors_within: point index out of range");
    // Ascending j, diagonal included (at(i, i) == 0 <= epsilon for any
    // non-negative epsilon), double comparison against the widened f32 cell.
    std::vector<std::uint32_t> out;
    for (std::size_t j = 0; j < matrix_.size(); ++j) {
        if (matrix_.at(i, j) <= epsilon) {
            out.push_back(static_cast<std::uint32_t>(j));
        }
    }
    return out;
}

void matrix_neighborhood::prepare_range(double epsilon) const {
    if (range_prepared(epsilon)) {
        return;
    }
    release_range();
    const std::size_t n = matrix_.size();
    // A negative (or NaN) epsilon admits no cell; the row scan answers it.
    if (n == 0 || !(epsilon >= 0.0)) {
        return;
    }
    const std::size_t words = (n + 63) / 64;
    // Under a cap the bits are an optimization, never a failure: when they
    // do not fit, the sweep stays on the row scans.
    if (mem::would_exceed(static_cast<std::uint64_t>(n) * words * sizeof(std::uint64_t))) {
        return;
    }
    obs::span sp("dissim.matrix.prefetch");
    sp.count("n", n);
    obs::progress_stage("dissim.matrix.prefetch", n);
    range_bits_.resize(n * words);
    const float limit = float_floor(epsilon);
    const float* dense = matrix_.storage() == layout::dense ? matrix_.data().data() : nullptr;
    // Each lane fills whole bit rows from the same cells at() reads, so the
    // bits are the row scan's answers at any lane count.
    util::parallel_for(n, 64, threads_, [&](std::size_t begin, std::size_t end) {
        std::vector<float> scratch(dense != nullptr ? 0 : n);
        for (std::size_t i = begin; i < end; ++i) {
            const float* row = nullptr;
            if (dense != nullptr) {
                row = dense + i * n;
            } else {
                // gather_row skips the diagonal: open its slot, which at()
                // reports as 0.
                matrix_.gather_row(i, scratch.data());
                std::copy_backward(scratch.begin() + static_cast<long>(i), scratch.end() - 1,
                                   scratch.end());
                scratch[i] = 0.0f;
                row = scratch.data();
            }
            std::uint64_t* bits = range_bits_.data() + i * words;
            for (std::size_t w = 0; w < words; ++w) {
                const std::size_t base = w * 64;
                bits[w] = within_mask(row + base, std::min<std::size_t>(64, n - base), limit);
            }
            obs::progress_add(1);
        }
    });
    range_epsilon_ = epsilon;
}

std::span<const std::uint64_t> matrix_neighborhood::prepared_row(std::size_t i,
                                                                 double epsilon) const {
    expects(i < matrix_.size(), "prepared_row: point index out of range");
    if (!range_prepared(epsilon)) {
        return {};
    }
    const std::size_t words = (matrix_.size() + 63) / 64;
    return {range_bits_.data() + i * words, words};
}

void matrix_neighborhood::release_range() const {
    mem::buffer<std::uint64_t>().swap(range_bits_);
}

}  // namespace ftc::dissim
