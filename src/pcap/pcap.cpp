#include "pcap/pcap.hpp"

#include <algorithm>

#include "util/atomic_file.hpp"
#include "util/check.hpp"

namespace ftc::pcap {

namespace {

constexpr std::uint32_t kMagicUsec = 0xa1b2c3d4;
constexpr std::uint32_t kMagicNsec = 0xa1b23c4d;
constexpr std::uint32_t kMagicUsecSwapped = 0xd4c3b2a1;
constexpr std::uint32_t kMagicNsecSwapped = 0x4d3cb2a1;
constexpr std::uint16_t kVersionMajor = 2;
constexpr std::uint16_t kVersionMinor = 4;
constexpr std::size_t kGlobalHeaderSize = 24;
constexpr std::size_t kRecordHeaderSize = 16;

/// Absolute ceiling on a single record's captured length. No sane link
/// carries larger frames; a bigger incl_len is a corrupt header, and
/// honoring it would attempt a multi-GB allocation before the parse error
/// ever fired.
constexpr std::uint32_t kMaxRecordBytes = 64u * 1024 * 1024;

/// Floor of the per-record plausibility bound: files whose global header
/// understates the snaplen (off-spec producers) still parse as long as
/// records stay under 256 KiB.
constexpr std::uint32_t kMinRecordBound = 256u * 1024;

}  // namespace

byte_vector to_pcap_bytes(const capture& cap) {
    byte_vector out;
    out.reserve(kGlobalHeaderSize + cap.packets.size() * kRecordHeaderSize);
    put_u32_be(out, kMagicUsec);
    put_u16_be(out, kVersionMajor);
    put_u16_be(out, kVersionMinor);
    put_u32_be(out, 0);  // thiszone
    put_u32_be(out, 0);  // sigfigs
    put_u32_be(out, cap.snaplen);
    put_u32_be(out, static_cast<std::uint32_t>(cap.link));
    for (const packet& p : cap.packets) {
        put_u32_be(out, p.ts_sec);
        put_u32_be(out, p.ts_usec);
        put_u32_be(out, static_cast<std::uint32_t>(p.data.size()));  // incl_len
        put_u32_be(out, static_cast<std::uint32_t>(p.data.size()));  // orig_len
        put_bytes(out, p.data);
    }
    return out;
}

capture from_pcap_bytes(byte_view bytes, diag::error_sink& sink) {
    if (bytes.size() < kGlobalHeaderSize) {
        throw parse_error(message("pcap: file too short (", bytes.size(), " bytes)"));
    }
    // The magic is written in the producer's byte order; try big-endian
    // first, then the byte-swapped variants.
    const std::uint32_t magic_be = get_u32_be(bytes, 0);
    bool little_endian = false;
    bool nanosecond = false;
    switch (magic_be) {
        case kMagicUsec:
            break;
        case kMagicNsec:
            nanosecond = true;
            break;
        case kMagicUsecSwapped:
            little_endian = true;
            break;
        case kMagicNsecSwapped:
            little_endian = true;
            nanosecond = true;
            break;
        default:
            throw parse_error(message("pcap: bad magic 0x", std::hex, magic_be));
    }
    auto u16 = [&](std::size_t off) {
        return little_endian ? get_u16_le(bytes, off) : get_u16_be(bytes, off);
    };
    auto u32 = [&](std::size_t off) {
        return little_endian ? get_u32_le(bytes, off) : get_u32_be(bytes, off);
    };

    const std::uint16_t major = u16(4);
    if (major != kVersionMajor) {
        throw parse_error(message("pcap: unsupported version ", major));
    }
    capture cap;
    cap.snaplen = u32(16);
    cap.link = static_cast<linktype>(u32(20));
    if (nanosecond) {
        sink.report({diag::category::file_header, diag::severity::note, 0, 0,
                     "pcap: nanosecond timestamps downscaled to microseconds"});
    }

    // Per-record plausibility bound: the stated snaplen with headroom for
    // off-spec producers, but never past the hard allocation ceiling.
    const std::uint32_t record_bound =
        std::min(kMaxRecordBytes, std::max(cap.snaplen, kMinRecordBound));

    // Timestamp plausibility, the discriminator that keeps the
    // resynchronization scan from matching inside packet data: writers keep
    // the sub-second field below one tick unit per second, and neighboring
    // records in a capture are close in time. Both fail for the small
    // integers and text that fill record bodies.
    const std::uint32_t tick_limit = nanosecond ? 1'000'000'000u : 1'000'000u;
    constexpr std::uint32_t kResyncTsWindow = 7 * 24 * 3600;  // seconds
    auto ts_sane = [&](std::size_t pos, std::uint32_t ref_sec) {
        const std::uint32_t sec = u32(pos);
        const std::uint32_t delta = sec > ref_sec ? sec - ref_sec : ref_sec - sec;
        return delta <= kResyncTsWindow && u32(pos + 4) < tick_limit;
    };

    // Find the next offset >= from that looks like a record header, given
    // the seconds timestamp of the record whose length field was corrupt
    // (its timestamp words survive a bad length). Two shapes qualify: a
    // healthy record (plausible timestamp and incl_len, body fits the file,
    // followed by end-of-file or another plausible header), or the intact
    // header of a further length-corrupted record (plausible timestamp and
    // orig_len, absurd incl_len) — resuming on the latter lets the main
    // loop quarantine that record under its own index.
    auto find_next_record = [&](std::size_t from, std::uint32_t ref_sec) {
        for (std::size_t pos = from; pos + kRecordHeaderSize <= bytes.size(); ++pos) {
            if (!ts_sane(pos, ref_sec)) {
                continue;
            }
            const std::uint32_t incl = u32(pos + 8);
            if (incl > record_bound) {
                if (u32(pos + 12) <= record_bound) {
                    return pos;  // another corrupt length field, header intact
                }
                continue;
            }
            const std::size_t end = pos + kRecordHeaderSize + incl;
            if (end > bytes.size()) {
                continue;
            }
            if (end == bytes.size()) {
                return pos;
            }
            if (end + kRecordHeaderSize <= bytes.size() && ts_sane(end, u32(pos))) {
                return pos;
            }
        }
        return bytes.size();
    };

    std::size_t offset = kGlobalHeaderSize;
    std::size_t record_index = 0;
    while (offset < bytes.size()) {
        if (offset + kRecordHeaderSize > bytes.size()) {
            sink.fail({diag::category::record, diag::severity::error, record_index, offset,
                       "pcap: truncated record header"});
            break;  // lenient: the tail cannot hold a record
        }
        packet p;
        p.ts_sec = u32(offset);
        p.ts_usec = u32(offset + 4);
        if (nanosecond) {
            p.ts_usec /= 1000;
        }
        const std::uint32_t incl_len = u32(offset + 8);
        const std::uint32_t orig_len = u32(offset + 12);
        std::string fault;
        if (incl_len > record_bound) {
            fault = message("pcap: implausible record length ", incl_len, " (bound ",
                            record_bound, ")");
        } else if (offset + kRecordHeaderSize + incl_len > bytes.size()) {
            fault = "pcap: truncated packet data";
        }
        if (!fault.empty()) {
            sink.fail({diag::category::record, diag::severity::error, record_index, offset,
                       std::move(fault)});
            // Lenient: quarantine this record and resynchronize on the next
            // plausible record header.
            const std::size_t next = find_next_record(offset + kRecordHeaderSize, p.ts_sec);
            if (next < bytes.size()) {
                sink.report({diag::category::record, diag::severity::note, record_index,
                             next,
                             message("pcap: resynchronized after skipping ", next - offset,
                                     " bytes")});
            }
            offset = next;
            ++record_index;
            continue;
        }
        if (incl_len < orig_len) {
            sink.report({diag::category::record, diag::severity::note, record_index, offset,
                         message("pcap: record snapped from ", orig_len, " to ", incl_len,
                                 " bytes")});
        }
        offset += kRecordHeaderSize;
        const byte_view body = bytes.subspan(offset, incl_len);
        p.data.assign(body.begin(), body.end());
        offset += incl_len;
        cap.packets.push_back(std::move(p));
        ++record_index;
    }
    return cap;
}

capture from_pcap_bytes(byte_view bytes) {
    diag::error_sink strict;
    return from_pcap_bytes(bytes, strict);
}

void write_file(const std::filesystem::path& path, const capture& cap) {
    util::atomic_write_file(path, to_pcap_bytes(cap));
}

capture read_file(const std::filesystem::path& path, diag::error_sink& sink) {
    return from_pcap_bytes(util::read_file(path), sink);
}

capture read_file(const std::filesystem::path& path) {
    diag::error_sink strict;
    return read_file(path, strict);
}

}  // namespace ftc::pcap
