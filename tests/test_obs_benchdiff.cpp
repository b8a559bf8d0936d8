// The bench-history diff behind tools/bench_compare: golden JSON strings
// drive parse_bench_report + compare + render_compare, pinning the
// regression semantics CI gates on (quality drops are absolute, cost moves
// are relative and noise-gated, missing/newly-failing runs always regress).
#include <gtest/gtest.h>

#include <string>

#include "obs/benchdiff.hpp"
#include "util/error.hpp"

namespace ftc::obs {
namespace {

/// A minimal two-run table1 report; tweak fields per test via replace().
std::string report(double f_score, double elapsed, bool failed = false) {
    std::string json = R"({
      "bench": "table1",
      "meta": {"git_sha": "abc123def456", "timestamp": "2026-08-09T00:00:00Z",
               "hostname": "ci", "build_type": "Release",
               "kernel_backend": "lut", "threads": 8},
      "runs": [
        {"label": "dns/100", "failed": FAILED, "f_score": FSCORE,
         "precision": 0.9, "recall": 0.85, "coverage": 0.8,
         "elapsed_seconds": ELAPSED, "peak_bytes": 1000000},
        {"label": "ntp/100", "failed": false, "f_score": 0.95,
         "precision": 0.95, "recall": 0.95, "coverage": 0.9,
         "elapsed_seconds": 1.0, "peak_bytes": 2000000}
      ]
    })";
    const auto replace = [&json](const std::string& key, const std::string& value) {
        json.replace(json.find(key), key.size(), value);
    };
    replace("FAILED", failed ? "true" : "false");
    replace("FSCORE", std::to_string(f_score));
    replace("ELAPSED", std::to_string(elapsed));
    return json;
}

TEST(ObsBenchdiff, ParsesReportAndMeta) {
    const bench_file f = parse_bench_report(report(0.91, 2.0), "BENCH_table1.json");
    EXPECT_EQ(f.bench, "table1");
    EXPECT_EQ(f.path, "BENCH_table1.json");
    EXPECT_EQ(f.meta.git_sha, "abc123def456");
    EXPECT_EQ(f.meta.hostname, "ci");
    EXPECT_EQ(f.meta.kernel_backend, "lut");
    EXPECT_EQ(f.meta.threads, 8u);
    ASSERT_EQ(f.runs.size(), 2u);
    EXPECT_EQ(f.runs[0].label, "dns/100");
    EXPECT_DOUBLE_EQ(f.runs[0].f_score, 0.91);
    EXPECT_DOUBLE_EQ(f.runs[0].peak_bytes, 1000000.0);
}

TEST(ObsBenchdiff, PreMetaFileFallsBackToUnknown) {
    const bench_file f = parse_bench_report(
        R"({"bench":"table1","runs":[{"label":"dns/100","f_score":0.9}]})");
    EXPECT_EQ(f.meta.git_sha, "unknown");
    EXPECT_EQ(f.meta.hostname, "unknown");
    EXPECT_EQ(f.meta.threads, 0u);
    EXPECT_FALSE(f.runs[0].failed);  // omitted fields default quietly
}

TEST(ObsBenchdiff, MalformedInputThrows) {
    EXPECT_THROW(parse_bench_report("{not json", "bad.json"), ftc::error);
    EXPECT_THROW(parse_bench_report(R"({"runs":[]})"), ftc::error);      // no bench
    EXPECT_THROW(parse_bench_report(R"({"bench":"t"})"), ftc::error);    // no runs
    EXPECT_THROW(parse_bench_report("[1,2,3]"), ftc::error);             // not object
    EXPECT_THROW(load_bench_report("/nonexistent-dir-xyz/b.json"), ftc::error);
}

TEST(ObsBenchdiff, IdenticalFilesHaveNoRegression) {
    const bench_file base = parse_bench_report(report(0.91, 2.0));
    const compare_result r = compare(base, base);
    EXPECT_FALSE(r.has_regression());
    EXPECT_EQ(r.regressions, 0u);
    EXPECT_EQ(r.improvements, 0u);
    EXPECT_TRUE(r.deltas.empty());
}

TEST(ObsBenchdiff, QualityDropBeyondToleranceRegresses) {
    const bench_file base = parse_bench_report(report(0.91, 2.0));
    // Inside the 0.01 absolute tolerance: quiet.
    EXPECT_FALSE(compare(base, parse_bench_report(report(0.905, 2.0))).has_regression());
    // Past it: regression on f_score for that run only.
    const compare_result r = compare(base, parse_bench_report(report(0.85, 2.0)));
    ASSERT_EQ(r.regressions, 1u);
    EXPECT_EQ(r.deltas[0].label, "dns/100");
    EXPECT_EQ(r.deltas[0].metric, "f_score");
    EXPECT_EQ(r.deltas[0].level, bench_delta::severity::regression);
    // A quality gain is an improvement, never a regression.
    const compare_result up = compare(base, parse_bench_report(report(0.97, 2.0)));
    EXPECT_FALSE(up.has_regression());
    EXPECT_EQ(up.improvements, 1u);
}

TEST(ObsBenchdiff, TimeRegressionIsRelativeAndIgnorable) {
    const bench_file base = parse_bench_report(report(0.91, 2.0));
    // +20% is inside the default 30% noise gate.
    EXPECT_FALSE(compare(base, parse_bench_report(report(0.91, 2.4))).has_regression());
    // +100% regresses...
    const bench_file slow = parse_bench_report(report(0.91, 4.0));
    EXPECT_TRUE(compare(base, slow).has_regression());
    // ...unless time is ignored (the CI default against a committed baseline).
    compare_options opt;
    opt.ignore_time = true;
    EXPECT_FALSE(compare(base, slow, opt).has_regression());
    // A big speedup reports as an improvement.
    const compare_result fast = compare(base, parse_bench_report(report(0.91, 0.5)));
    EXPECT_FALSE(fast.has_regression());
    EXPECT_EQ(fast.improvements, 1u);
    EXPECT_EQ(fast.deltas[0].metric, "elapsed_seconds");
}

TEST(ObsBenchdiff, MissingRunAlwaysRegresses) {
    const bench_file base = parse_bench_report(report(0.91, 2.0));
    const bench_file only_ntp = parse_bench_report(
        R"({"bench":"table1","runs":[{"label":"ntp/100","f_score":0.95,)"
        R"("precision":0.95,"recall":0.95,"coverage":0.9,)"
        R"("elapsed_seconds":1.0,"peak_bytes":2000000}]})");
    const compare_result r = compare(base, only_ntp);
    ASSERT_GE(r.regressions, 1u);
    EXPECT_EQ(r.deltas[0].label, "dns/100");
    EXPECT_EQ(r.deltas[0].metric, "status");
    EXPECT_NE(r.deltas[0].message.find("missing"), std::string::npos);
}

TEST(ObsBenchdiff, NewlyFailingRegressesAndRecoveryImproves) {
    const bench_file ok = parse_bench_report(report(0.91, 2.0));
    const bench_file broken = parse_bench_report(report(0.0, 0.0, /*failed=*/true));
    const compare_result r = compare(ok, broken);
    ASSERT_GE(r.regressions, 1u);
    EXPECT_EQ(r.deltas[0].metric, "status");
    EXPECT_NE(r.deltas[0].message.find("newly failing"), std::string::npos);
    // The reverse direction is an improvement, and the failed row's zeroed
    // numbers must not generate bogus quality/cost regressions.
    const compare_result back = compare(broken, ok);
    EXPECT_FALSE(back.has_regression());
    EXPECT_GE(back.improvements, 1u);
}

TEST(ObsBenchdiff, NewRunIsInfoOnly) {
    const bench_file base = parse_bench_report(
        R"({"bench":"table1","runs":[{"label":"dns/100","f_score":0.91,)"
        R"("precision":0.9,"recall":0.85,"coverage":0.8,)"
        R"("elapsed_seconds":2.0,"peak_bytes":1000000}]})");
    const compare_result r = compare(base, parse_bench_report(report(0.91, 2.0)));
    EXPECT_FALSE(r.has_regression());
    ASSERT_EQ(r.deltas.size(), 1u);
    EXPECT_EQ(r.deltas[0].level, bench_delta::severity::info);
    EXPECT_EQ(r.deltas[0].label, "ntp/100");
}

TEST(ObsBenchdiff, RegressionsSortBeforeImprovements) {
    const bench_file base = parse_bench_report(report(0.91, 2.0));
    // f_score drops (regression) while time halves (improvement).
    const compare_result r = compare(base, parse_bench_report(report(0.80, 0.5)));
    ASSERT_GE(r.deltas.size(), 2u);
    EXPECT_EQ(r.deltas[0].level, bench_delta::severity::regression);
    EXPECT_EQ(r.deltas.back().level, bench_delta::severity::improvement);
}

TEST(ObsBenchdiff, RenderContainsMetaAndVerdict) {
    const bench_file base = parse_bench_report(report(0.91, 2.0), "baseline.json");
    const bench_file bad = parse_bench_report(report(0.80, 2.0), "candidate.json");
    const compare_result r = compare(base, bad);
    const std::string text = render_compare(base, bad, r);
    EXPECT_NE(text.find("bench: table1"), std::string::npos);
    EXPECT_NE(text.find("baseline.json"), std::string::npos);
    EXPECT_NE(text.find("abc123def456"), std::string::npos);
    EXPECT_NE(text.find("[REGRESSION] dns/100"), std::string::npos);
    EXPECT_NE(text.find("verdict: REGRESSION"), std::string::npos);

    const std::string clean = render_compare(base, base, compare(base, base));
    EXPECT_NE(clean.find("no differences beyond thresholds"), std::string::npos);
    EXPECT_NE(clean.find("verdict: ok"), std::string::npos);
}

}  // namespace
}  // namespace ftc::obs
