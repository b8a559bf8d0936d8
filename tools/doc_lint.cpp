/// \file doc_lint.cpp
/// Documentation drift gate: the README flag table and the bench schema
/// docs are promises, and this tool makes breaking them a CI failure.
///
///   doc_lint [repo_root]        (default: current directory)
///
/// Checks, each symmetric where it can be:
///
///   1. Every flag of ftclust's command-line table (tools/cli_flags.hpp,
///      linked in) and every `--flag` string literal parsed by
///      tools/bench_compare.cpp appears in README.md, and every `--flag`
///      token in README.md or DESIGN.md names a parsed flag (a short
///      allowlist covers flags of foreign tools quoted in build
///      instructions: ctest/cmake/google-benchmark). Each table flag has a
///      row in README.md's flag reference whose value name and subcommand
///      column match the table.
///   2. Every JSON key bench_common.hpp's bench_report emits (`key("...")`
///      literals) and every per-run extra any bench emits
///      (`extra("...")` literals in bench/*.cpp) appears in the
///      EXPERIMENTS.md schema documentation.
///
/// Exit codes: 0 clean, 1 drift found, 2 usage or I/O error.
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <regex>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli_flags.hpp"

namespace {

namespace fs = std::filesystem;

bool read_file(const fs::path& path, std::string& out) {
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        std::fprintf(stderr, "doc_lint: cannot read %s\n", path.string().c_str());
        return false;
    }
    std::ostringstream ss;
    ss << in.rdbuf();
    out = ss.str();
    return true;
}

/// Quoted "--flag" string literals — the flags a parser actually accepts.
std::set<std::string> parsed_flags(const std::string& source) {
    std::set<std::string> out;
    static const std::regex pattern("\"(--[a-z0-9-]+)\"");
    for (auto it = std::sregex_iterator(source.begin(), source.end(), pattern);
         it != std::sregex_iterator(); ++it) {
        out.insert((*it)[1].str());
    }
    return out;
}

/// `--flag` tokens in prose/tables. A trailing dash never ends a flag
/// name, so "--max-memory" matches whole while "--foo--" style noise
/// cannot occur in these docs.
std::set<std::string> documented_flags(const std::string& text) {
    std::set<std::string> out;
    static const std::regex pattern("(--[a-z0-9]+(?:-[a-z0-9]+)*)");
    for (auto it = std::sregex_iterator(text.begin(), text.end(), pattern);
         it != std::sregex_iterator(); ++it) {
        out.insert((*it)[1].str());
    }
    return out;
}

/// key("...") / extra("...") literals — the JSON keys a bench emits.
std::set<std::string> emitted_keys(const std::string& source, const char* call) {
    std::set<std::string> out;
    const std::regex pattern(std::string(call) + "\\(\"([A-Za-z0-9_]+)\"");
    for (auto it = std::sregex_iterator(source.begin(), source.end(), pattern);
         it != std::sregex_iterator(); ++it) {
        out.insert((*it)[1].str());
    }
    return out;
}

int g_failures = 0;

void drift(const char* what, const std::string& name, const char* where) {
    std::fprintf(stderr, "doc_lint: %s `%s` %s\n", what, name.c_str(), where);
    ++g_failures;
}

}  // namespace

int main(int argc, char** argv) {
    if (argc > 2) {
        std::fputs("usage: doc_lint [repo_root]\n", stderr);
        return 2;
    }
    const fs::path root = argc == 2 ? fs::path(argv[1]) : fs::path(".");

    std::string compare_src, readme, design, experiments, bench_common;
    if (!read_file(root / "tools/bench_compare.cpp", compare_src) ||
        !read_file(root / "README.md", readme) ||
        !read_file(root / "DESIGN.md", design) ||
        !read_file(root / "EXPERIMENTS.md", experiments) ||
        !read_file(root / "bench/bench_common.hpp", bench_common)) {
        return 2;
    }

    // --- Check 1: CLI flags vs README/DESIGN ---------------------------
    std::set<std::string> parsed = parsed_flags(compare_src);
    for (const ftc::cli::flag_spec& f : ftc::cli::flags()) {
        parsed.emplace(f.name);
    }
    for (const ftc::cli::command_spec& c : ftc::cli::commands()) {
        if (c.alias.starts_with("--")) {
            parsed.emplace(c.alias);  // `ftclust --version`
        }
    }
    const std::set<std::string> in_readme = documented_flags(readme);
    const std::set<std::string> in_design = documented_flags(design);

    // Flags of foreign tools legitimately quoted in the docs' build and
    // bench instructions (ctest, cmake --build, google-benchmark).
    const std::set<std::string> allowlist = {"--output-on-failure", "--build", "--benchmark"};

    for (const std::string& f : parsed) {
        if (in_readme.count(f) == 0) {
            drift("parsed flag", f, "is missing from README.md");
        }
    }
    for (const std::string& f : in_readme) {
        if (parsed.count(f) == 0 && allowlist.count(f) == 0) {
            drift("documented flag", f, "is parsed by no tool (README.md)");
        }
    }
    for (const std::string& f : in_design) {
        if (parsed.count(f) == 0 && allowlist.count(f) == 0) {
            drift("documented flag", f, "is parsed by no tool (DESIGN.md)");
        }
    }

    // Each table flag's row in README.md's flag reference, subcommands in
    // table order: "| `--threads N` | analyze, serve, evaluate |".
    for (const ftc::cli::flag_spec& f : ftc::cli::flags()) {
        std::string row = "| `";
        row += f.name;
        row += f.metavar.empty() ? "" : " ";
        row += f.metavar;
        row += "` |";
        for (std::size_t c = 0; c < ftc::cli::commands().size(); ++c) {
            if (f.accepted_by(static_cast<ftc::cli::command>(c))) {
                row += row.back() == '|' ? " " : ", ";
                row += ftc::cli::commands()[c].name;
            }
        }
        row += " |";
        if (readme.find(row) == std::string::npos) {
            drift("flag", std::string{f.name}, ("needs the README.md row " + row).c_str());
        }
    }

    // --- Check 2: bench JSON keys vs EXPERIMENTS.md --------------------
    std::set<std::string> keys = emitted_keys(bench_common, "key");
    for (const auto& entry : fs::directory_iterator(root / "bench")) {
        if (entry.path().extension() != ".cpp") {
            continue;
        }
        std::string bench_src;
        if (!read_file(entry.path(), bench_src)) {
            return 2;
        }
        for (const std::string& k : emitted_keys(bench_src, "extra")) {
            keys.insert(k);
        }
    }
    for (const std::string& k : keys) {
        // The schema docs quote every key name; a plain-token fallback
        // covers keys discussed in prose.
        if (experiments.find("\"" + k + "\"") == std::string::npos &&
            experiments.find("`" + k + "`") == std::string::npos) {
            drift("bench JSON key", k, "is missing from EXPERIMENTS.md");
        }
    }

    if (g_failures > 0) {
        std::fprintf(stderr, "doc_lint: %d drift(s) found\n", g_failures);
        return 1;
    }
    std::puts("doc_lint: docs and parsers agree");
    return 0;
}
