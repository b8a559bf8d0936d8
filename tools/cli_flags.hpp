/// \file cli_flags.hpp
/// The ftclust command line as one declarative table: every subcommand with
/// its positional arguments, every flag with the subcommands that accept it
/// and its default in each. `ftclust` parses argv against the table, its
/// usage text is generated from it, and tools/doc_lint checks README.md's
/// flag reference against it.
///
/// Parsing is strict: an unknown flag, a flag the subcommand does not
/// accept, a value flag without a value (at the end, or followed by another
/// `--flag`) and a missing or stray positional argument are usage errors,
/// which the CLI reports with the usage text and exit code 2.
#pragma once

#include <array>
#include <cstdint>
#include <functional>
#include <map>
#include <optional>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "util/error.hpp"

namespace ftc::cli {

enum class command { analyze, serve, version, generate, corrupt, evaluate };

struct command_spec {
    std::string_view name;         ///< "analyze"
    std::string_view alias;        ///< "run", "--version", or empty
    std::string_view positionals;  ///< usage form, e.g. "<in.pcap> <out.pcap>"
    std::size_t positional_count;
};

struct flag_spec {
    std::string_view name;     ///< "--threads"
    std::string_view metavar;  ///< "N"; empty for a switch
    /// Default per subcommand, indexed by command: nullptr = not accepted,
    /// "" = accepted, no default.
    std::array<const char*, 6> defaults;

    bool accepted_by(command c) const { return defaults[static_cast<std::size_t>(c)] != nullptr; }
};

std::span<const command_spec> commands();  ///< indexed by command
std::span<const flag_spec> flags();

/// A subcommand word (name or alias), or nullopt.
std::optional<command> find_command(std::string_view word);

/// A malformed command line; what() says what was wrong.
class usage_error : public ftc::error {
public:
    using ftc::error::error;
};

/// One subcommand's parsed command line.
struct arguments {
    command cmd = command::analyze;
    std::vector<std::string> positional;
    std::map<std::string, std::string, std::less<>> given;  ///< first value of each flag

    bool has(std::string_view flag) const { return given.contains(flag); }
    /// The value given for \p flag, else the subcommand's default; nullptr
    /// when there is neither.
    const char* value(std::string_view flag) const;
    /// value() through util::parse_u64 / parse_double / parse_size_bytes.
    std::uint64_t u64(std::string_view flag) const;
    double real(std::string_view flag) const;
    std::uint64_t bytes(std::string_view flag) const;
};

/// Parse the arguments after the subcommand word; throws usage_error.
arguments parse(command c, int argc, const char* const* argv);

/// The usage text, generated from the table.
std::string usage();

}  // namespace ftc::cli
