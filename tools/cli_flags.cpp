#include "cli_flags.hpp"

#include "util/check.hpp"
#include "util/parse.hpp"

namespace ftc::cli {

namespace {

constexpr command_spec kCommands[] = {
    {"analyze", "run", "<capture.pcap>", 1},
    {"serve", "", "", 0},
    {"version", "--version", "", 0},
    {"generate", "", "<protocol> <messages> <out.pcap>", 3},
    {"corrupt", "", "<in.pcap> <out.pcap>", 2},
    {"evaluate", "", "<protocol> <messages>", 2},
};

constexpr const char* x = nullptr;  // not accepted by this subcommand

// Defaults in command order: analyze, serve, version, generate, corrupt, evaluate.
constexpr flag_spec kFlags[] = {
    {"--spool", "DIR", {x, "", x, x, x, x}},
    {"--listen", "HOST:PORT", {x, "127.0.0.1:0", x, x, x, x}},
    {"--sessions", "N", {x, "2", x, x, x, x}},
    {"--queue-depth", "N", {x, "8", x, x, x, x}},
    {"--max-body", "BYTES", {x, "64M", x, x, x, x}},
    {"--session-max-memory", "BYTES", {x, "0", x, x, x, x}},
    {"--io-deadline-ms", "N", {x, "5000", x, x, x, x}},
    {"--retry-after", "N", {x, "1", x, x, x, x}},
    {"--segmenter", "NAME", {"NEMESYS", "NEMESYS", x, x, x, "true"}},
    {"--budget", "SECONDS", {"120", "120", x, x, x, x}},
    {"--deadline-ms", "N", {"0", x, x, x, x, x}},
    {"--max-segments", "N", {"0", x, x, x, x, x}},
    {"--max-bytes", "N", {"0", x, x, x, x, x}},
    {"--max-memory", "BYTES", {"0", "0", x, x, x, x}},
    {"--strict", "", {"", "", x, x, x, x}},
    {"--lenient", "", {"", x, x, x, x, x}},
    {"--threads", "N", {"0", "1", x, x, x, "0"}},
    {"--neighborhood", "MODE", {"auto", "auto", x, x, x, x}},
    {"--semantics", "", {"", x, x, x, x, x}},
    {"--trace-out", "FILE", {"", x, x, x, x, x}},
    {"--metrics-out", "FILE", {"", x, x, x, x, x}},
    {"--manifest-out", "FILE", {"", x, x, x, x, x}},
    {"--report-out", "FILE", {"", x, x, x, x, x}},
    {"--checkpoint", "DIR", {"", x, x, x, x, x}},
    {"--resume", "", {"", x, x, x, x, x}},
    {"--telemetry-out", "FILE", {"", "", x, x, x, x}},
    {"--telemetry-interval-ms", "N", {"500", "500", x, x, x, x}},
    {"--progress", "", {"", x, x, x, x, x}},
    {"--metrics-listen", "HOST:PORT", {"", x, x, x, x, x}},
    {"--json", "", {x, x, "", x, x, x}},
    {"--seed", "N", {x, x, x, "1", "1", "1"}},
    {"--fraction", "F", {x, x, x, x, "0.1", x}},
};

const flag_spec* find_flag(std::string_view name, command c) {
    for (const flag_spec& f : kFlags) {
        if (f.name == name && f.accepted_by(c)) {
            return &f;
        }
    }
    return nullptr;
}

/// value(), for the flags that have a default.
const char* required(const arguments& args, std::string_view flag) {
    const char* v = args.value(flag);
    expects(v != nullptr, "arguments: flag has no default");
    return v;
}

/// Appends, never `"literal" + std::string`: GCC 12 reports such chains
/// here with a bogus -Wrestrict.
void append_padded(std::string& out, std::string_view word, std::size_t width) {
    const std::size_t start = out.size();
    out += "  ftclust ";
    out += word;
    if (out.size() - start < width) {
        out.append(width - (out.size() - start), ' ');
    }
}

}  // namespace

std::span<const command_spec> commands() { return kCommands; }
std::span<const flag_spec> flags() { return kFlags; }

std::optional<command> find_command(std::string_view word) {
    for (std::size_t i = 0; i < std::size(kCommands); ++i) {
        if (!word.empty() && (word == kCommands[i].name || word == kCommands[i].alias)) {
            return static_cast<command>(i);
        }
    }
    return std::nullopt;
}

arguments parse(command c, int argc, const char* const* argv) {
    const command_spec& spec = kCommands[static_cast<std::size_t>(c)];
    arguments out;
    out.cmd = c;
    for (int i = 0; i < argc; ++i) {
        const std::string_view arg = argv[i];
        if (!arg.starts_with("--")) {
            out.positional.emplace_back(arg);
            continue;
        }
        const flag_spec* flag = find_flag(arg, c);
        if (flag == nullptr) {
            throw usage_error(message(spec.name, ": unknown flag ", arg));
        }
        std::string value;
        if (!flag->metavar.empty()) {
            if (i + 1 == argc || std::string_view{argv[i + 1]}.starts_with("--")) {
                throw usage_error(
                    message(spec.name, ": ", arg, " needs a value (", flag->metavar, ")"));
            }
            value = argv[++i];
        }
        out.given.emplace(arg, std::move(value));  // a repeated flag keeps its first value
    }
    if (out.positional.size() != spec.positional_count) {
        throw usage_error(message(spec.name, ": expected ", spec.positional_count,
                                  " positional argument(s), got ", out.positional.size()));
    }
    return out;
}

const char* arguments::value(std::string_view flag) const {
    const flag_spec* f = find_flag(flag, cmd);
    expects(f != nullptr, "arguments: flag not accepted by this subcommand");
    if (const auto it = given.find(flag); it != given.end()) {
        return it->second.c_str();
    }
    const char* fallback = f->defaults[static_cast<std::size_t>(cmd)];
    return *fallback != '\0' ? fallback : nullptr;
}

std::uint64_t arguments::u64(std::string_view flag) const {
    return util::parse_u64(required(*this, flag), flag);
}

double arguments::real(std::string_view flag) const {
    return util::parse_double(required(*this, flag), flag);
}

std::uint64_t arguments::bytes(std::string_view flag) const {
    return util::parse_size_bytes(required(*this, flag), flag);
}

std::string usage() {
    constexpr std::size_t kIndent = 19;  // "  ftclust analyze  "
    std::string out = "usage:\n";
    for (std::size_t i = 0; i < std::size(kCommands); ++i) {
        std::size_t line_start = out.size();
        append_padded(out, kCommands[i].name, kIndent);
        out += kCommands[i].positionals;
        for (const flag_spec& f : kFlags) {
            if (!f.accepted_by(static_cast<command>(i))) {
                continue;
            }
            const std::size_t item = f.name.size() + (f.metavar.empty() ? 2 : 3 + f.metavar.size());
            if (out.size() - line_start + 1 + item > 80) {
                out += '\n';
                line_start = out.size();
                out.append(kIndent, ' ');
            }
            out += out.back() == ' ' ? "[" : " [";
            out += f.name;
            if (!f.metavar.empty()) {
                out += ' ';
                out += f.metavar;
            }
            out += ']';
        }
        out += '\n';
        if (!kCommands[i].alias.empty()) {
            append_padded(out, kCommands[i].alias, kIndent - 1);
            out += " (alias for ";
            out += kCommands[i].name;
            out += ")\n";
        }
    }
    out += "protocols: NTP DNS NBNS DHCP SMB AWDL AU\n";
    return out;
}

}  // namespace ftc::cli
