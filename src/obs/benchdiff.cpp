#include "obs/benchdiff.hpp"

#include <algorithm>
#include <cmath>
#include <cstdio>

#include "util/atomic_file.hpp"
#include "util/error.hpp"
#include "util/json.hpp"

namespace ftc::obs {

namespace {

bench_meta parse_meta(const util::json_value& doc) {
    bench_meta meta;
    const util::json_value* m = doc.find("meta");
    if (m == nullptr) {
        return meta;  // pre-provenance file: every field stays "unknown"
    }
    meta.git_sha = m->string_or("git_sha", meta.git_sha);
    meta.timestamp = m->string_or("timestamp", meta.timestamp);
    meta.hostname = m->string_or("hostname", meta.hostname);
    meta.build_type = m->string_or("build_type", meta.build_type);
    meta.kernel_backend = m->string_or("kernel_backend", meta.kernel_backend);
    meta.threads = static_cast<std::uint64_t>(m->number_or("threads", 0.0));
    return meta;
}

std::string fmt(double v) {
    char buf[32];
    if (v == 0.0) {
        return "0";
    }
    if (std::abs(v) >= 1e6) {
        std::snprintf(buf, sizeof buf, "%.3g", v);
    } else {
        std::snprintf(buf, sizeof buf, "%.4f", v);
        // trim trailing zeros but keep one decimal
        std::string s{buf};
        while (s.size() > 1 && s.back() == '0') {
            s.pop_back();
        }
        if (!s.empty() && s.back() == '.') {
            s.pop_back();
        }
        return s;
    }
    return buf;
}

std::string pct(double baseline, double current) {
    if (baseline <= 0.0) {
        return "n/a";
    }
    char buf[32];
    std::snprintf(buf, sizeof buf, "%+.1f%%", 100.0 * (current - baseline) / baseline);
    return buf;
}

const bench_run* find_run(const bench_file& f, const std::string& label) {
    for (const bench_run& r : f.runs) {
        if (r.label == label) {
            return &r;
        }
    }
    return nullptr;
}

/// Quality metric: deterministic given the bench seed, so any drop past the
/// (small, absolute) tolerance is a regression; any gain is an improvement.
void diff_quality(std::vector<bench_delta>& out, const std::string& label,
                  const char* metric, double base, double cur, double tolerance) {
    if (cur < base - tolerance) {
        out.push_back({bench_delta::severity::regression, label, metric, base, cur,
                       std::string{metric} + " dropped " + fmt(base) + " -> " + fmt(cur)});
    } else if (cur > base + tolerance) {
        out.push_back({bench_delta::severity::improvement, label, metric, base, cur,
                       std::string{metric} + " improved " + fmt(base) + " -> " + fmt(cur)});
    }
}

/// Cost metric: noisy, so only relative moves past the threshold count
/// (in either direction — a big win is reported as an improvement).
void diff_cost(std::vector<bench_delta>& out, const std::string& label,
               const char* metric, double base, double cur, double threshold) {
    if (base <= 0.0) {
        return;  // nothing to compare against (failed baseline rows carry 0)
    }
    const double rel = (cur - base) / base;
    if (rel > threshold) {
        out.push_back({bench_delta::severity::regression, label, metric, base, cur,
                       std::string{metric} + " " + pct(base, cur) + " (" + fmt(base) +
                           " -> " + fmt(cur) + ")"});
    } else if (rel < -threshold) {
        out.push_back({bench_delta::severity::improvement, label, metric, base, cur,
                       std::string{metric} + " " + pct(base, cur) + " (" + fmt(base) +
                           " -> " + fmt(cur) + ")"});
    }
}

}  // namespace

bench_file parse_bench_report(std::string_view json, std::string path) {
    const std::string where = path.empty() ? std::string{"<memory>"} : path;
    util::json_value doc;
    try {
        doc = util::parse_json(json);
    } catch (const ftc::error& e) {
        throw ftc::error(where + ": " + e.what());
    }
    if (!doc.is_object() || doc.find("bench") == nullptr || doc.find("runs") == nullptr) {
        throw ftc::error(where + ": not a bench report (missing 'bench'/'runs')");
    }
    bench_file out;
    out.path = std::move(path);
    out.bench = doc.at("bench").as_string();
    out.meta = parse_meta(doc);
    for (const util::json_value& row : doc.at("runs").as_array()) {
        bench_run run;
        run.label = row.at("label").as_string();
        run.failed = row.bool_or("failed", false);
        run.failure_reason = row.string_or("failure_reason", "");
        run.f_score = row.number_or("f_score", 0.0);
        run.precision = row.number_or("precision", 0.0);
        run.recall = row.number_or("recall", 0.0);
        run.coverage = row.number_or("coverage", 0.0);
        run.elapsed_seconds = row.number_or("elapsed_seconds", 0.0);
        run.peak_bytes = row.number_or("peak_bytes", 0.0);
        out.runs.push_back(std::move(run));
    }
    return out;
}

bench_file load_bench_report(const std::string& path) {
    const byte_vector bytes = util::read_file(path);
    return parse_bench_report(std::string(bytes.begin(), bytes.end()), path);
}

compare_result compare(const bench_file& baseline, const bench_file& candidate,
                       const compare_options& options) {
    compare_result out;
    std::vector<bench_delta>& d = out.deltas;

    for (const bench_run& base : baseline.runs) {
        const bench_run* cur = find_run(candidate, base.label);
        if (cur == nullptr) {
            d.push_back({bench_delta::severity::regression, base.label, "status", 0, 0,
                         "run missing from candidate"});
            continue;
        }
        if (!base.failed && cur->failed) {
            d.push_back({bench_delta::severity::regression, base.label, "status", 0, 0,
                         "newly failing: " + (cur->failure_reason.empty()
                                                  ? std::string{"(no reason recorded)"}
                                                  : cur->failure_reason)});
            continue;  // cost/quality fields of a failed row are meaningless
        }
        if (base.failed && !cur->failed) {
            d.push_back({bench_delta::severity::improvement, base.label, "status", 0, 0,
                         "previously failing run now passes"});
            continue;  // baseline numbers are from a failed row: no diff basis
        }
        if (base.failed && cur->failed) {
            continue;
        }
        diff_quality(d, base.label, "f_score", base.f_score, cur->f_score,
                     options.quality_drop);
        diff_quality(d, base.label, "precision", base.precision, cur->precision,
                     options.quality_drop);
        diff_quality(d, base.label, "recall", base.recall, cur->recall,
                     options.quality_drop);
        diff_quality(d, base.label, "coverage", base.coverage, cur->coverage,
                     options.quality_drop);
        if (!options.ignore_time) {
            diff_cost(d, base.label, "elapsed_seconds", base.elapsed_seconds,
                      cur->elapsed_seconds, options.time_threshold);
        }
        if (!options.ignore_memory) {
            diff_cost(d, base.label, "peak_bytes", base.peak_bytes, cur->peak_bytes,
                      options.mem_threshold);
        }
    }
    for (const bench_run& cur : candidate.runs) {
        if (find_run(baseline, cur.label) == nullptr) {
            d.push_back({bench_delta::severity::info, cur.label, "status", 0, 0,
                         "new run (absent from baseline)"});
        }
    }

    std::stable_sort(d.begin(), d.end(), [](const bench_delta& a, const bench_delta& b) {
        return static_cast<int>(a.level) > static_cast<int>(b.level);
    });
    for (const bench_delta& delta : d) {
        if (delta.level == bench_delta::severity::regression) {
            ++out.regressions;
        } else if (delta.level == bench_delta::severity::improvement) {
            ++out.improvements;
        }
    }
    return out;
}

std::string render_compare(const bench_file& baseline, const bench_file& candidate,
                           const compare_result& result) {
    std::ostringstream out;
    const auto describe = [](const bench_file& f) {
        return f.path + " (" + f.meta.git_sha + " @ " + f.meta.timestamp + ", " +
               f.meta.hostname + ", " + std::to_string(f.meta.threads) + " threads, " +
               f.meta.kernel_backend + " kernel)";
    };
    out << "bench: " << candidate.bench << "\n";
    out << "baseline:  " << describe(baseline) << "\n";
    out << "candidate: " << describe(candidate) << "\n";
    if (result.deltas.empty()) {
        out << "no differences beyond thresholds\n";
    }
    for (const bench_delta& d : result.deltas) {
        const char* tag = d.level == bench_delta::severity::regression ? "REGRESSION"
                          : d.level == bench_delta::severity::improvement
                              ? "improvement"
                              : "note";
        out << "  [" << tag << "] " << d.label << ": " << d.message << "\n";
    }
    out << (result.has_regression() ? "verdict: REGRESSION" : "verdict: ok") << " ("
        << result.regressions << " regression(s), " << result.improvements
        << " improvement(s))\n";
    return out.str();
}

}  // namespace ftc::obs
