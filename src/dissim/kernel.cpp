#include "dissim/kernel.hpp"

#include <algorithm>
#include <array>
#include <atomic>
#include <bit>
#include <cstring>
#include <limits>

#include "dissim/canberra.hpp"
#include "util/check.hpp"

namespace ftc::dissim::kernel {

namespace {

/// The shared per-byte term table. Each entry runs exactly the arithmetic
/// of the scalar loop in canberra.cpp (same operand order, same select of
/// |x−y|), so a LUT lookup and a scalar evaluation of the same byte pair
/// are the same double.
struct term_table_holder {
    alignas(64) std::array<double, 256 * 256> terms{};

    term_table_holder() {
        for (int x = 0; x < 256; ++x) {
            for (int y = 0; y < 256; ++y) {
                const double xi = x;
                const double yi = y;
                const double denom = xi + yi;
                terms[static_cast<std::size_t>(x) * 256 + static_cast<std::size_t>(y)] =
                    denom != 0.0 ? (xi > yi ? xi - yi : yi - xi) / denom : 0.0;
            }
        }
    }
};

std::atomic<backend>& backend_slot() {
    static std::atomic<backend> slot{backend::lut};
    return slot;
}

/// Chunk granularity (bytes) of the early-exit prune checks inside the
/// sliding loops. Coarse enough to amortize the comparison, fine enough
/// that a hopeless long window dies early.
constexpr std::size_t kPruneChunk = 32;

/// Accumulate the LUT terms of len byte pairs onto \p sum, strictly in
/// element order (sum = ((sum + t_0) + t_1) + ...).
double row_terms_lut(const std::uint8_t* x, const std::uint8_t* y, std::size_t len,
                     double sum, const double* lut) {
    std::size_t i = 0;
    for (; i + 4 <= len; i += 4) {
        const double t0 = lut[static_cast<std::size_t>(x[i]) << 8 | y[i]];
        const double t1 = lut[static_cast<std::size_t>(x[i + 1]) << 8 | y[i + 1]];
        const double t2 = lut[static_cast<std::size_t>(x[i + 2]) << 8 | y[i + 2]];
        const double t3 = lut[static_cast<std::size_t>(x[i + 3]) << 8 | y[i + 3]];
        sum += t0;
        sum += t1;
        sum += t2;
        sum += t3;
    }
    for (; i < len; ++i) {
        sum += lut[static_cast<std::size_t>(x[i]) << 8 | y[i]];
    }
    return sum;
}

/// Sums eight consecutive windows (y+0..y+7 against x) into sums[0..7],
/// each window a strictly in-order add chain; the speedup comes from the
/// eight independent chains overlapping in the pipeline, never from
/// reordering one window's sum (DESIGN.md §9). Returns true when abandoned
/// at a kPruneChunk checkpoint with every partial already above \p bound.
bool batch8_terms(const std::uint8_t* x, const std::uint8_t* y, std::size_t m,
                  const double* lut, double bound, double* sums) {
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    double s4 = 0.0;
    double s5 = 0.0;
    double s6 = 0.0;
    double s7 = 0.0;
    std::size_t i = 0;
    while (i < m) {
        const std::size_t stop = std::min(i + kPruneChunk, m);
        for (; i < stop; ++i) {
            // Lane k needs term (x[i], y[i + k]); one LUT row per x byte.
            // The eight y bytes arrive in a single 64-bit load (the loop
            // is load-port-bound otherwise) and shifts recover each lane's
            // byte — index values, and therefore sums, are unchanged.
            const double* lut_row = lut + (static_cast<std::size_t>(x[i]) << 8);
            std::uint64_t y8;
            std::memcpy(&y8, y + i, sizeof(y8));
            if constexpr (std::endian::native != std::endian::little) {
                y8 = __builtin_bswap64(y8);
            }
            s0 += lut_row[y8 & 0xff];
            s1 += lut_row[(y8 >> 8) & 0xff];
            s2 += lut_row[(y8 >> 16) & 0xff];
            s3 += lut_row[(y8 >> 24) & 0xff];
            s4 += lut_row[(y8 >> 32) & 0xff];
            s5 += lut_row[(y8 >> 40) & 0xff];
            s6 += lut_row[(y8 >> 48) & 0xff];
            s7 += lut_row[y8 >> 56];
        }
        if (i < m && s0 > bound && s1 > bound && s2 > bound && s3 > bound &&
            s4 > bound && s5 > bound && s6 > bound && s7 > bound) {
            return true;
        }
    }
    sums[0] = s0;
    sums[1] = s1;
    sums[2] = s2;
    sums[3] = s3;
    sums[4] = s4;
    sums[5] = s5;
    sums[6] = s6;
    sums[7] = s7;
    return false;
}

/// Four-window variant of batch8_terms for the sliding remainder.
bool batch4_terms(const std::uint8_t* x, const std::uint8_t* y, std::size_t m,
                  const double* lut, double bound, double* sums) {
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    std::size_t i = 0;
    while (i < m) {
        const std::size_t stop = std::min(i + kPruneChunk, m);
        for (; i < stop; ++i) {
            const double* lut_row = lut + (static_cast<std::size_t>(x[i]) << 8);
            std::uint32_t y4;
            std::memcpy(&y4, y + i, sizeof(y4));
            if constexpr (std::endian::native != std::endian::little) {
                y4 = __builtin_bswap32(y4);
            }
            s0 += lut_row[y4 & 0xff];
            s1 += lut_row[(y4 >> 8) & 0xff];
            s2 += lut_row[(y4 >> 16) & 0xff];
            s3 += lut_row[y4 >> 24];
        }
        if (i < m && s0 > bound && s1 > bound && s2 > bound && s3 > bound) {
            return true;
        }
    }
    sums[0] = s0;
    sums[1] = s1;
    sums[2] = s2;
    sums[3] = s3;
    return false;
}

/// Reference scalar sliding loop (full window sums, no pruning) with the
/// kernel-stats hooks — operation-for-operation the loop in canberra.cpp.
double sliding_scalar(byte_view s, byte_view l, stats* st) {
    const std::size_t m = s.size();
    const std::size_t n = l.size();
    double d_min = 1.0;
    for (std::size_t off = 0; off + m <= n; ++off) {
        if (st != nullptr) {
            ++st->windows_total;
        }
        const double d = canberra_dissimilarity(s, l.subspan(off, m));
        d_min = std::min(d_min, d);
        if (d_min == 0.0) {
            break;
        }
    }
    const double ratio = static_cast<double>(m) / static_cast<double>(n);
    const double penalty = 1.0 - ratio * (1.0 - d_min);
    return (static_cast<double>(m) * d_min + static_cast<double>(n - m) * penalty) /
           static_cast<double>(n);
}

/// LUT sliding loop with early-exit pruning. The best window's raw
/// term sum is the running bound; a window whose partial sum exceeds it
/// cannot become the minimum (terms are non-negative and double addition
/// of non-negative terms is monotone), so it is abandoned mid-window. The
/// winning window is always summed to completion, in the scalar order, so
/// d_min — and therefore the returned dissimilarity — is bitwise identical
/// to the unpruned loop (DESIGN.md §9).
double sliding_pruned(byte_view s, byte_view l, stats* st) {
    const std::size_t m = s.size();
    const std::size_t n = l.size();
    const double* lut = term_table();

    // The bound starts at +inf, so the first batch is computed in full and
    // seeds it — no special-cased first window, which would otherwise be a
    // standalone latency-bound chain per pair. min over raw window sums
    // equals the reference's min over per-window dissimilarities because
    // division by the positive constant m preserves order (DESIGN.md §9).
    double best = std::numeric_limits<double>::infinity();

    // Main loop: eight windows per step. Each window's sum is the exact
    // in-order scalar double, so taking the running min over them in
    // offset order reproduces the reference loop bitwise. A batch may run
    // up to seven windows past a zero-valued one before the best != 0.0
    // exit fires — harmless, since later windows cannot go below zero.
    std::size_t off = 0;
    for (; off + 7 + m <= n && best != 0.0; off += 8) {
        if (st != nullptr) {
            st->windows_total += 8;
        }
        double sums[8];
        if (batch8_terms(s.data(), l.data() + off, m, lut, best, sums)) {
            if (st != nullptr) {
                st->windows_pruned += 8;
            }
            continue;
        }
        for (int k = 0; k < 8; ++k) {
            if (sums[k] > best) {
                if (st != nullptr) {
                    ++st->windows_pruned;
                }
            } else if (sums[k] < best) {
                best = sums[k];
            }
        }
    }

    // Four-window step for the mid remainder (short slide distances —
    // DHCP-style near-equal lengths — never reach the eight-window loop).
    for (; off + 3 + m <= n && best != 0.0; off += 4) {
        if (st != nullptr) {
            st->windows_total += 4;
        }
        double sums[4];
        if (batch4_terms(s.data(), l.data() + off, m, lut, best, sums)) {
            if (st != nullptr) {
                st->windows_pruned += 4;
            }
            continue;
        }
        for (int k = 0; k < 4; ++k) {
            if (sums[k] > best) {
                if (st != nullptr) {
                    ++st->windows_pruned;
                }
            } else if (sums[k] < best) {
                best = sums[k];
            }
        }
    }

    // Remainder windows (fewer than four left), chunk-checked singly.
    for (; off + m <= n && best != 0.0; ++off) {
        if (st != nullptr) {
            ++st->windows_total;
        }
        const std::uint8_t* lp = l.data() + off;
        double sum = 0.0;
        bool pruned = false;
        for (std::size_t i = 0; i < m; i += kPruneChunk) {
            sum = row_terms_lut(s.data() + i, lp + i, std::min(kPruneChunk, m - i), sum, lut);
            if (sum > best) {
                pruned = true;
                break;
            }
        }
        if (pruned) {
            if (st != nullptr) {
                ++st->windows_pruned;
            }
            continue;
        }
        if (sum < best) {
            best = sum;
        }
    }

    // min over off of (sum_off / m) equals (min over off of sum_off) / m:
    // IEEE division by a positive constant is monotone, so dividing once at
    // the end reproduces the scalar loop's per-window divide-then-min.
    const double d_min = best / static_cast<double>(m);
    const double ratio = static_cast<double>(m) / static_cast<double>(n);
    const double penalty = 1.0 - ratio * (1.0 - d_min);
    return (static_cast<double>(m) * d_min + static_cast<double>(n - m) * penalty) /
           static_cast<double>(n);
}

}  // namespace

const char* backend_name(backend b) {
    switch (b) {
        case backend::scalar:
            return "scalar";
        case backend::lut:
            return "lut";
    }
    return "unknown";
}

backend active() { return backend_slot().load(std::memory_order_relaxed); }

void force(backend b) { backend_slot().store(b, std::memory_order_relaxed); }

void reset() { force(backend::lut); }

const double* term_table() {
    static const term_table_holder holder;
    return holder.terms.data();
}

double equal_dissimilarity(byte_view x, byte_view y, stats* st) {
    expects(!x.empty(), "equal_dissimilarity: empty vector");
    expects(x.size() == y.size(), "equal_dissimilarity: length mismatch");
    if (st != nullptr) {
        ++st->invocations;
        ++st->equal_fast_path;
    }
    if (active() == backend::scalar) {
        return canberra_dissimilarity(x, y);
    }
    const double sum = row_terms_lut(x.data(), y.data(), x.size(), 0.0, term_table());
    return sum / static_cast<double>(x.size());
}

void equal_dissimilarity_batch(byte_view x, const byte_view* ys, std::size_t count,
                               double* out, stats* st) {
    expects(count >= 1 && count <= kEqualBatch,
            "equal_dissimilarity_batch: count must be in [1, kEqualBatch]");
    // Partial batches and the scalar backend go pair by pair; only a full
    // batch pays for the eight-chain loop.
    if (count < kEqualBatch || active() == backend::scalar) {
        for (std::size_t k = 0; k < count; ++k) {
            out[k] = equal_dissimilarity(x, ys[k], st);
        }
        return;
    }
    expects(!x.empty(), "equal_dissimilarity_batch: empty vector");
    const std::size_t m = x.size();
    for (std::size_t k = 0; k < count; ++k) {
        expects(ys[k].size() == m, "equal_dissimilarity_batch: length mismatch");
    }
    if (st != nullptr) {
        st->invocations += count;
        st->equal_fast_path += count;
    }
    const double* lut = term_table();
    const std::uint8_t* xp = x.data();
    const std::uint8_t* y0 = ys[0].data();
    const std::uint8_t* y1 = ys[1].data();
    const std::uint8_t* y2 = ys[2].data();
    const std::uint8_t* y3 = ys[3].data();
    const std::uint8_t* y4 = ys[4].data();
    const std::uint8_t* y5 = ys[5].data();
    const std::uint8_t* y6 = ys[6].data();
    const std::uint8_t* y7 = ys[7].data();
    double s0 = 0.0;
    double s1 = 0.0;
    double s2 = 0.0;
    double s3 = 0.0;
    double s4 = 0.0;
    double s5 = 0.0;
    double s6 = 0.0;
    double s7 = 0.0;
    for (std::size_t i = 0; i < m; ++i) {
        // Pair k's chain appends term (x[i], ys[k][i]) — in-order per pair.
        const double* lut_row = lut + (static_cast<std::size_t>(xp[i]) << 8);
        s0 += lut_row[y0[i]];
        s1 += lut_row[y1[i]];
        s2 += lut_row[y2[i]];
        s3 += lut_row[y3[i]];
        s4 += lut_row[y4[i]];
        s5 += lut_row[y5[i]];
        s6 += lut_row[y6[i]];
        s7 += lut_row[y7[i]];
    }
    const double denom = static_cast<double>(m);
    out[0] = s0 / denom;
    out[1] = s1 / denom;
    out[2] = s2 / denom;
    out[3] = s3 / denom;
    out[4] = s4 / denom;
    out[5] = s5 / denom;
    out[6] = s6 / denom;
    out[7] = s7 / denom;
}

double sliding_dissimilarity(byte_view a, byte_view b, stats* st) {
    expects(!a.empty() && !b.empty(), "sliding_dissimilarity: empty segment");
    if (a.size() == b.size()) {
        return equal_dissimilarity(a, b, st);
    }
    if (st != nullptr) {
        ++st->invocations;
    }
    const byte_view s = a.size() <= b.size() ? a : b;  // shorter
    const byte_view l = a.size() <= b.size() ? b : a;  // longer
    if (active() == backend::scalar) {
        return sliding_scalar(s, l, st);
    }
    return sliding_pruned(s, l, st);
}

void sliding_dissimilarity_batch(byte_view a, const byte_view* bs, std::size_t count,
                                 double* out, stats* st) {
    expects(count >= 1 && count <= kSlideBatch,
            "sliding_dissimilarity_batch: count must be in [1, kSlideBatch]");
    expects(!a.empty(), "sliding_dissimilarity_batch: empty segment");
    if (active() == backend::scalar) {
        for (std::size_t k = 0; k < count; ++k) {
            out[k] = sliding_dissimilarity(a, bs[k], st);
        }
        return;
    }
    // One dispatch for the whole batch; the per-pair loop is otherwise the
    // single-call path (bitwise-identical results by construction).
    for (std::size_t k = 0; k < count; ++k) {
        const byte_view b = bs[k];
        expects(!b.empty(), "sliding_dissimilarity_batch: empty segment");
        if (a.size() == b.size()) {
            out[k] = equal_dissimilarity(a, b, st);
            continue;
        }
        if (st != nullptr) {
            ++st->invocations;
        }
        const byte_view s = a.size() <= b.size() ? a : b;  // shorter
        const byte_view l = a.size() <= b.size() ? b : a;  // longer
        out[k] = sliding_pruned(s, l, st);
    }
}

}  // namespace ftc::dissim::kernel
