// The ftclust command-line table (tools/cli_flags.hpp): per-subcommand
// parsing, defaults and rejection of unknown flags, missing values and
// stray arguments, plus the generated usage text. The end-to-end twin
// (the built binary exits 2 and writes no report) is
// tests/cli_usage_error.cmake.
#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "cli_flags.hpp"

namespace ftc::cli {
namespace {

arguments parse_words(command c, std::vector<const char*> words) {
    return parse(c, static_cast<int>(words.size()), words.data());
}

void expect_usage_error(command c, std::vector<const char*> words) {
    std::string joined;
    for (const char* w : words) {
        joined += std::string(" ") + w;
    }
    EXPECT_THROW(parse_words(c, words), usage_error)
        << commands()[static_cast<std::size_t>(c)].name << joined;
}

std::set<std::string> accepted(command c) {
    std::set<std::string> out;
    for (const flag_spec& f : flags()) {
        if (f.accepted_by(c)) {
            out.emplace(f.name);
        }
    }
    return out;
}

TEST(CliFlags, SubcommandWordsAndAliases) {
    EXPECT_EQ(find_command("analyze"), command::analyze);
    EXPECT_EQ(find_command("run"), command::analyze);
    EXPECT_EQ(find_command("serve"), command::serve);
    EXPECT_EQ(find_command("version"), command::version);
    EXPECT_EQ(find_command("--version"), command::version);
    EXPECT_EQ(find_command("generate"), command::generate);
    EXPECT_EQ(find_command("corrupt"), command::corrupt);
    EXPECT_EQ(find_command("evaluate"), command::evaluate);
    EXPECT_FALSE(find_command("").has_value());
    EXPECT_FALSE(find_command("--help").has_value());
    EXPECT_FALSE(find_command("Run").has_value());
}

TEST(CliFlags, EachSubcommandAcceptsExactlyItsFlags) {
    EXPECT_EQ(accepted(command::analyze),
              (std::set<std::string>{
                  "--segmenter", "--budget", "--deadline-ms", "--max-segments", "--max-bytes",
                  "--max-memory", "--strict", "--lenient", "--threads", "--neighborhood",
                  "--semantics", "--trace-out", "--metrics-out", "--manifest-out",
                  "--report-out", "--checkpoint", "--resume", "--telemetry-out",
                  "--telemetry-interval-ms", "--progress", "--metrics-listen"}));
    EXPECT_EQ(accepted(command::serve),
              (std::set<std::string>{
                  "--spool", "--listen", "--sessions", "--queue-depth", "--max-body",
                  "--session-max-memory", "--io-deadline-ms", "--retry-after", "--segmenter",
                  "--budget", "--threads", "--neighborhood", "--strict", "--max-memory",
                  "--telemetry-out", "--telemetry-interval-ms"}));
    EXPECT_EQ(accepted(command::version), (std::set<std::string>{"--json"}));
    EXPECT_EQ(accepted(command::generate), (std::set<std::string>{"--seed"}));
    EXPECT_EQ(accepted(command::corrupt), (std::set<std::string>{"--fraction", "--seed"}));
    EXPECT_EQ(accepted(command::evaluate),
              (std::set<std::string>{"--segmenter", "--seed", "--threads"}));
}

TEST(CliFlags, TableIsWellFormed) {
    std::set<std::string_view> names;
    for (const flag_spec& f : flags()) {
        EXPECT_TRUE(f.name.starts_with("--")) << f.name;
        EXPECT_TRUE(names.insert(f.name).second) << "duplicate " << f.name;
        bool any = false;
        for (const char* d : f.defaults) {
            any = any || d != nullptr;
            if (d != nullptr && f.metavar.empty()) {
                EXPECT_STREQ(d, "") << "a switch has no default: " << f.name;
            }
        }
        EXPECT_TRUE(any) << f.name << " is accepted by no subcommand";
    }
}

TEST(CliFlags, AnalyzeDefaultsAndValues) {
    const arguments none = parse_words(command::analyze, {"x.pcap"});
    ASSERT_EQ(none.positional.size(), 1u);
    EXPECT_EQ(none.positional[0], "x.pcap");
    EXPECT_EQ(none.u64("--threads"), 0u);  // all hardware threads
    EXPECT_FALSE(none.has("--lenient"));   // strict by default
    EXPECT_STREQ(none.value("--segmenter"), "NEMESYS");
    EXPECT_DOUBLE_EQ(none.real("--budget"), 120.0);
    EXPECT_EQ(none.bytes("--max-memory"), 0u);
    EXPECT_STREQ(none.value("--neighborhood"), "auto");
    EXPECT_DOUBLE_EQ(none.real("--telemetry-interval-ms"), 500.0);
    EXPECT_EQ(none.value("--report-out"), nullptr);
    EXPECT_EQ(none.value("--checkpoint"), nullptr);

    // Flags may come before the capture; a repeated flag keeps its first value.
    const arguments some = parse_words(
        command::analyze, {"--lenient", "--threads", "4", "x.pcap", "--max-memory", "1K",
                           "--report-out", "r.txt", "--threads", "2", "--resume"});
    EXPECT_EQ(some.positional[0], "x.pcap");
    EXPECT_TRUE(some.has("--lenient"));
    EXPECT_TRUE(some.has("--resume"));
    EXPECT_EQ(some.u64("--threads"), 4u);
    EXPECT_EQ(some.bytes("--max-memory"), 1024u);
    EXPECT_STREQ(some.value("--report-out"), "r.txt");
    // A flag of another subcommand is a programming error, not a lookup.
    EXPECT_THROW((void)some.value("--spool"), ftc::error);
}

TEST(CliFlags, AnalyzeRejectsWhatItUsedToIgnore) {
    // Each of these ran to completion, uncapped or with a misplaced file.
    expect_usage_error(command::analyze, {"x.pcap", "--bogus", "--max-memroy", "1K"});
    expect_usage_error(command::analyze, {"x.pcap", "--max-memory"});
    expect_usage_error(command::analyze, {"x.pcap", "--report-out", "--threads", "1"});
    expect_usage_error(command::analyze, {"--help"});
    expect_usage_error(command::analyze, {});
    expect_usage_error(command::analyze, {"x.pcap", "y.pcap"});
    expect_usage_error(command::analyze, {"x.pcap", "--spool", "s"});  // serve's flag
    expect_usage_error(command::analyze, {"x.pcap", "--json"});
}

TEST(CliFlags, ServeDefaultsAndRejections) {
    const arguments a = parse_words(command::serve, {"--spool", "s"});
    EXPECT_TRUE(a.positional.empty());
    EXPECT_STREQ(a.value("--spool"), "s");
    EXPECT_EQ(a.u64("--threads"), 1u);  // one lane per session
    EXPECT_FALSE(a.has("--strict"));    // lenient by default
    EXPECT_STREQ(a.value("--listen"), "127.0.0.1:0");
    EXPECT_EQ(a.u64("--sessions"), 2u);
    EXPECT_EQ(a.u64("--queue-depth"), 8u);
    EXPECT_EQ(a.bytes("--max-body"), 64u * 1024 * 1024);
    EXPECT_EQ(a.u64("--io-deadline-ms"), 5000u);
    EXPECT_EQ(a.u64("--retry-after"), 1u);
    EXPECT_EQ(parse_words(command::serve, {}).value("--spool"), nullptr);

    expect_usage_error(command::serve, {"--spool", "s", "--bogus"});
    expect_usage_error(command::serve, {"--spool", "s", "--lenient"});
    expect_usage_error(command::serve, {"--spool"});
    expect_usage_error(command::serve, {"--spool", "s", "extra"});
    expect_usage_error(command::serve, {"--spool", "s", "--report-out", "r"});
}

TEST(CliFlags, GenerateCorruptEvaluateVersion) {
    const arguments g = parse_words(command::generate, {"DNS", "100", "o.pcap", "--seed", "3"});
    EXPECT_EQ(g.positional, (std::vector<std::string>{"DNS", "100", "o.pcap"}));
    EXPECT_EQ(g.u64("--seed"), 3u);
    EXPECT_EQ(parse_words(command::generate, {"DNS", "1", "o"}).u64("--seed"), 1u);
    expect_usage_error(command::generate, {"DNS", "100", "o.pcap", "--sede", "3"});
    expect_usage_error(command::generate, {"DNS", "100"});
    expect_usage_error(command::generate, {"DNS", "100", "o.pcap", "extra"});
    expect_usage_error(command::generate, {"DNS", "100", "o.pcap", "--seed"});

    const arguments c = parse_words(command::corrupt, {"in.pcap", "out.pcap"});
    EXPECT_DOUBLE_EQ(c.real("--fraction"), 0.1);
    EXPECT_EQ(c.u64("--seed"), 1u);
    expect_usage_error(command::corrupt, {"in.pcap", "out.pcap", "--threads", "2"});
    expect_usage_error(command::corrupt, {"in.pcap"});

    const arguments e = parse_words(command::evaluate, {"NTP", "300"});
    EXPECT_STREQ(e.value("--segmenter"), "true");
    EXPECT_EQ(e.u64("--threads"), 0u);
    EXPECT_EQ(e.u64("--seed"), 1u);
    expect_usage_error(command::evaluate, {"NTP", "300", "--lenient"});
    expect_usage_error(command::evaluate, {"NTP"});
    expect_usage_error(command::evaluate, {"NTP", "300", "--segmenter"});

    EXPECT_TRUE(parse_words(command::version, {"--json"}).has("--json"));
    EXPECT_FALSE(parse_words(command::version, {}).has("--json"));
    expect_usage_error(command::version, {"--jsn"});
    expect_usage_error(command::version, {"json"});
}

TEST(CliFlags, UsageTextIsGeneratedFromTheTable) {
    const std::string text = usage();
    EXPECT_EQ(text.rfind("usage:\n", 0), 0u);
    for (const command_spec& c : commands()) {
        EXPECT_NE(text.find("  ftclust " + std::string(c.name) + " "), std::string::npos)
            << c.name;
    }
    EXPECT_NE(text.find("ftclust run      (alias for analyze)"), std::string::npos) << text;
    EXPECT_NE(text.find("ftclust --version (alias for version)"), std::string::npos) << text;
    for (const flag_spec& f : flags()) {
        std::string item = "[";  // appended: GCC 12 -Wrestrict misfires on "lit" + string
        item += f.name;
        if (!f.metavar.empty()) {
            item += ' ';
            item += f.metavar;
        }
        item += ']';
        EXPECT_NE(text.find(item), std::string::npos) << item;
    }
    std::istringstream lines(text);
    for (std::string line; std::getline(lines, line);) {
        EXPECT_LE(line.size(), 80u) << line;
    }
}

}  // namespace
}  // namespace ftc::cli
