/// \file field.hpp
/// Ground-truth field model for the synthetic protocol traces.
///
/// A *field* (paper Sec. III-B) is a byte range at a specific position in a
/// message with a data type and value domain. The generators annotate every
/// message they emit with exact field boundaries and type labels; these
/// annotations play the role Wireshark dissectors play in the paper: the
/// ground truth against which clustering quality is measured.
#pragma once

#include <cstdint>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "pcap/decap.hpp"
#include "util/byteio.hpp"

namespace ftc::protocols {

/// Ground-truth data type of a field. The clustering method never sees
/// these labels — they are used only for evaluation (paper Sec. IV-A).
enum class field_type : std::uint8_t {
    id,           ///< identifiers: transaction/session ids, cookies
    flags,        ///< bit fields and packed flag bytes
    enumeration,  ///< enumerated codes: opcodes, message types, option tags
    unsigned_int, ///< generic unsigned numeric values (counts, metrics)
    signed_int,   ///< signed numeric values
    length,       ///< length/size fields
    checksum,     ///< checksums and CRCs
    timestamp,    ///< absolute or relative time values
    ipv4_addr,    ///< IPv4 addresses
    mac_addr,     ///< IEEE 802 MAC addresses
    chars,        ///< printable character sequences
    bytes,        ///< opaque binary blobs
    padding,      ///< zero or constant padding
    nonce,        ///< random nonces / challenge values
    signature,    ///< cryptographic signatures / MACs (high entropy)
    measurement,  ///< sensor/ranging measurement values
};

/// Stable display name of a field type ("timestamp", "ipv4_addr", ...).
const char* to_string(field_type type);

/// Number of distinct field_type values (for iteration in reports).
constexpr std::size_t field_type_count = 16;

/// One annotated field within a message.
struct field_annotation {
    std::size_t offset = 0;  ///< byte offset within the message
    std::size_t length = 0;  ///< byte length (> 0)
    field_type type = field_type::bytes;
    std::string name;        ///< human-readable field name, e.g. "xmit_ts"

    auto operator<=>(const field_annotation&) const = default;
};

/// A message with ground-truth annotations and flow context.
struct annotated_message {
    byte_vector bytes;
    std::vector<field_annotation> fields;  ///< sorted, contiguous, covering
    pcap::flow_key flow;                   ///< zeroed for non-IP protocols
    bool is_request = true;                ///< request/response direction
};

/// A named set of annotated messages.
struct trace {
    std::string protocol;
    std::vector<annotated_message> messages;

    /// Total number of payload bytes across all messages.
    std::size_t total_bytes() const;
};

/// Throws ftc::error unless \p msg's annotations are sorted, non-empty in
/// length, non-overlapping and cover the message bytes exactly.
void validate_annotations(const annotated_message& msg);

/// Strict order on byte strings for the dedup sets: shorter first, equal
/// lengths by one memcmp. Membership is all the sets need, and comparing
/// lengths first settles most pairs without reading a byte.
struct shortlex_less {
    bool operator()(const byte_vector& a, const byte_vector& b) const {
        if (a.size() != b.size()) {
            return a.size() < b.size();
        }
        return !a.empty() && std::memcmp(a.data(), b.data(), a.size()) < 0;
    }
};

/// Message byte strings seen so far (first-occurrence dedup).
using byte_set = std::set<byte_vector, shortlex_less>;

/// Remove messages whose byte content duplicates an earlier message
/// (paper Sec. III-A: duplicates carry no additional information).
trace deduplicate(const trace& input);

/// Keep only the first \p max_messages messages.
trace truncate(const trace& input, std::size_t max_messages);

}  // namespace ftc::protocols
