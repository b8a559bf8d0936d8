#include "testing/corrupter.hpp"

#include <algorithm>

#include "util/atomic_file.hpp"
#include "util/check.hpp"
#include "util/rng.hpp"

namespace ftc::testing {

namespace {

constexpr std::size_t kGlobalHeaderSize = 24;
constexpr std::size_t kRecordHeaderSize = 16;
constexpr std::size_t kEthernetSize = 14;
constexpr std::uint32_t kLinkEthernet = 1;
constexpr std::uint32_t kLinkRawIp = 101;
/// Implausible incl_len used by length_garbage: 1 GiB, far beyond the
/// reader's 64 MiB hard ceiling, so it is quarantined on every input.
constexpr std::uint32_t kGarbageLength = 0x40000000;

/// Location of one record in the source byte stream.
struct record_ref {
    std::size_t header_offset = 0;
    std::size_t body_offset = 0;
    std::uint32_t incl_len = 0;
};

}  // namespace

std::size_t corruption_log::count(fault_kind kind) const {
    std::size_t n = 0;
    for (const fault& f : faults) {
        if (f.kind == kind) {
            ++n;
        }
    }
    return n;
}

bool corruption_log::faulted(std::size_t record_index) const {
    for (const fault& f : faults) {
        if (f.record_index == record_index) {
            return true;
        }
    }
    return false;
}

byte_vector corrupt_pcap_bytes(byte_view pcap_bytes, const corruption_options& options,
                               corruption_log* log) {
    expects(options.fault_fraction >= 0.0 && options.fault_fraction <= 1.0,
            "corrupt_pcap_bytes: fault_fraction must be in [0, 1]");
    if (pcap_bytes.size() < kGlobalHeaderSize) {
        throw parse_error("corrupter: input too short for a pcap global header");
    }
    const std::uint32_t magic_be = get_u32_be(pcap_bytes, 0);
    bool little_endian = false;
    switch (magic_be) {
        case 0xa1b2c3d4u:
        case 0xa1b23c4du:
            break;
        case 0xd4c3b2a1u:
        case 0x4d3cb2a1u:
            little_endian = true;
            break;
        default:
            throw parse_error("corrupter: input is not a pcap file");
    }
    auto u32 = [&](std::size_t off) {
        return little_endian ? get_u32_le(pcap_bytes, off) : get_u32_be(pcap_bytes, off);
    };
    auto put_u32 = [&](byte_vector& out, std::uint32_t v) {
        if (little_endian) {
            put_u32_le(out, v);
        } else {
            put_u32_be(out, v);
        }
    };
    const std::uint32_t link = u32(20);

    // Index the records of the (clean) input.
    std::vector<record_ref> records;
    std::size_t offset = kGlobalHeaderSize;
    while (offset < pcap_bytes.size()) {
        if (offset + kRecordHeaderSize > pcap_bytes.size()) {
            throw parse_error("corrupter: input has a truncated record header");
        }
        record_ref r;
        r.header_offset = offset;
        r.body_offset = offset + kRecordHeaderSize;
        r.incl_len = u32(offset + 8);
        if (r.body_offset + r.incl_len > pcap_bytes.size()) {
            throw parse_error("corrupter: input has a truncated record body");
        }
        offset = r.body_offset + r.incl_len;
        records.push_back(r);
    }

    std::vector<fault_kind> enabled;
    if (options.flip_bits) {
        enabled.push_back(fault_kind::bit_flip);
    }
    if (options.truncate_records) {
        enabled.push_back(fault_kind::snap);
    }
    if (options.corrupt_lengths) {
        enabled.push_back(fault_kind::length_garbage);
    }

    rng rand(options.seed);
    byte_vector out;
    out.reserve(pcap_bytes.size());
    put_bytes(out, pcap_bytes.subspan(0, kGlobalHeaderSize));

    // Offset of the IPv4 header within a record body, or SIZE_MAX when the
    // frame cannot carry one.
    auto ipv4_offset = [&](const record_ref& r) -> std::size_t {
        if (link == kLinkRawIp) {
            return r.incl_len >= 20 ? 0 : SIZE_MAX;
        }
        if (link != kLinkEthernet || r.incl_len < kEthernetSize + 20) {
            return SIZE_MAX;
        }
        const std::size_t type_off = r.body_offset + 12;
        const std::uint16_t ethertype =
            static_cast<std::uint16_t>((pcap_bytes[type_off] << 8) | pcap_bytes[type_off + 1]);
        return ethertype == 0x0800 ? kEthernetSize : SIZE_MAX;
    };

    auto applicable = [&](fault_kind kind, const record_ref& r) {
        switch (kind) {
            case fault_kind::bit_flip:
                return ipv4_offset(r) != SIZE_MAX;
            case fault_kind::snap:
                return r.incl_len >= 1;
            case fault_kind::length_garbage:
                return true;
        }
        return false;
    };

    for (std::size_t i = 0; i < records.size(); ++i) {
        const record_ref& r = records[i];
        const byte_view header = pcap_bytes.subspan(r.header_offset, kRecordHeaderSize);
        const byte_view body = pcap_bytes.subspan(r.body_offset, r.incl_len);

        bool inject = !enabled.empty() && rand.chance(options.fault_fraction);
        fault_kind kind = fault_kind::bit_flip;
        if (inject) {
            // Prefer the drawn kind; degrade to another enabled kind when
            // the record cannot carry it (e.g. bit_flip on a non-IP frame).
            kind = enabled[static_cast<std::size_t>(rand.uniform(0, enabled.size() - 1))];
            if (!applicable(kind, r)) {
                inject = false;
                for (const fault_kind candidate : enabled) {
                    if (applicable(candidate, r)) {
                        kind = candidate;
                        inject = true;
                        break;
                    }
                }
            }
        }
        if (!inject) {
            put_bytes(out, header);
            put_bytes(out, body);
            continue;
        }

        switch (kind) {
            case fault_kind::bit_flip: {
                const std::size_t ip_off = ipv4_offset(r);
                const std::uint8_t ihl =
                    static_cast<std::uint8_t>(body[ip_off] & 0x0f);
                const std::size_t header_len =
                    std::min<std::size_t>(std::max<std::size_t>(ihl, 5) * 4,
                                          r.incl_len - ip_off);
                const std::size_t victim =
                    ip_off + static_cast<std::size_t>(rand.uniform(0, header_len - 1));
                const std::uint8_t mask =
                    static_cast<std::uint8_t>(1u << rand.uniform(0, 7));
                put_bytes(out, header);
                const std::size_t body_start = out.size();
                put_bytes(out, body);
                out[body_start + victim] ^= mask;
                break;
            }
            case fault_kind::snap: {
                const std::uint32_t new_len =
                    static_cast<std::uint32_t>(rand.uniform(0, r.incl_len - 1));
                put_bytes(out, header.subspan(0, 8));  // timestamps
                put_u32(out, new_len);                 // incl_len, consistent
                put_bytes(out, header.subspan(12, 4)); // orig_len untouched
                put_bytes(out, body.subspan(0, new_len));
                break;
            }
            case fault_kind::length_garbage: {
                const std::uint32_t garbage =
                    kGarbageLength | static_cast<std::uint32_t>(rand.uniform(1, 0xffff));
                put_bytes(out, header.subspan(0, 8));
                put_u32(out, garbage);                 // implausible incl_len
                put_bytes(out, header.subspan(12, 4));
                put_bytes(out, body);                  // bytes left in place
                break;
            }
        }
        if (log != nullptr) {
            log->faults.push_back({kind, i});
        }
    }
    return out;
}

void corrupt_pcap_file(const std::filesystem::path& in_path,
                       const std::filesystem::path& out_path,
                       const corruption_options& options, corruption_log* log) {
    util::atomic_write_file(out_path, corrupt_pcap_bytes(util::read_file(in_path), options, log));
}

byte_vector flip_random_bits(byte_view bytes, std::size_t flips, std::uint64_t seed) {
    expects(!bytes.empty() || flips == 0, "flip_random_bits: nothing to flip");
    byte_vector out(bytes.begin(), bytes.end());
    rng gen(seed);
    for (std::size_t i = 0; i < flips; ++i) {
        const std::size_t byte_at =
            static_cast<std::size_t>(gen.uniform(0, out.size() - 1));
        const std::uint8_t bit = static_cast<std::uint8_t>(1u << gen.uniform(0, 7));
        out[byte_at] ^= bit;
    }
    return out;
}

void flip_random_bits_in_file(const std::filesystem::path& path, std::size_t flips,
                              std::uint64_t seed) {
    util::atomic_write_file(path, flip_random_bits(util::read_file(path), flips, seed));
}

}  // namespace ftc::testing
