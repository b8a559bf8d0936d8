// Protocol-specific structural properties of the generated workloads.
#include <gtest/gtest.h>

#include <map>
#include <set>

#include "protocols/au.hpp"
#include "protocols/awdl.hpp"
#include "protocols/dhcp.hpp"
#include "protocols/dns.hpp"
#include "protocols/nbns.hpp"
#include "protocols/ntp.hpp"
#include "protocols/registry.hpp"
#include "protocols/smb.hpp"
#include "util/byteio.hpp"
#include "util/check.hpp"

namespace ftc::protocols {
namespace {

TEST(Ntp, MessagesAreAlways48Bytes) {
    const trace t = generate_trace("NTP", 50, 7);
    for (const auto& m : t.messages) {
        EXPECT_EQ(m.bytes.size(), 48u);
    }
}

TEST(Ntp, TimestampsShareEraPrefix) {
    // The high bytes of the 2011-era transmit timestamps must be stable —
    // the static prefix visible in the paper's Fig. 3 (d2 3d ...).
    const trace t = generate_trace("NTP", 50, 7);
    for (const auto& m : t.messages) {
        const std::uint64_t xmit = get_u64_be(m.bytes, 40);
        if (xmit != 0) {
            EXPECT_EQ(xmit >> 56, 0xd2u);
        }
    }
}

TEST(Ntp, ClientServerModesAlternate) {
    ntp_generator gen(5);
    const annotated_message req = gen.next();
    const annotated_message resp = gen.next();
    EXPECT_EQ(req.bytes[0] & 0x07, 3);  // client
    EXPECT_EQ(resp.bytes[0] & 0x07, 4);  // server
    EXPECT_TRUE(req.is_request);
    EXPECT_FALSE(resp.is_request);
    // Response origin timestamp echoes the request transmit timestamp.
    EXPECT_EQ(get_u64_be(resp.bytes, 24), get_u64_be(req.bytes, 40));
    // Response flow is the reverse of the request flow.
    EXPECT_EQ(resp.flow, req.flow.reversed());
}

TEST(Ntp, DissectorRejectsWrongSizeAndMode) {
    EXPECT_THROW(dissect_ntp(byte_vector(47, 0)), parse_error);
    byte_vector msg(48, 0);
    msg[0] = 0x00;  // mode 0: implausible
    EXPECT_THROW(dissect_ntp(msg), parse_error);
}

TEST(Dns, NameEncodingKnownValue) {
    const byte_vector encoded = encode_dns_name("mail.example.com");
    byte_vector expected;
    expected.push_back(4);
    put_chars(expected, "mail");
    expected.push_back(7);
    put_chars(expected, "example");
    expected.push_back(3);
    put_chars(expected, "com");
    expected.push_back(0);
    EXPECT_EQ(encoded, expected);
}

TEST(Dns, QueriesPrecedeResponsesWithSharedTxid) {
    dns_generator gen(11);
    const annotated_message q = gen.next();
    const annotated_message r = gen.next();
    EXPECT_EQ(get_u16_be(q.bytes, 0), get_u16_be(r.bytes, 0));
    EXPECT_EQ(get_u16_be(q.bytes, 2), 0x0100);
    EXPECT_EQ(get_u16_be(r.bytes, 2), 0x8180);
    EXPECT_GE(get_u16_be(r.bytes, 6), 1u);  // at least one answer
}

TEST(Dns, DissectorRejectsMalformedNames) {
    // Label length 0x40 (> 63, not a pointer) is invalid.
    byte_vector msg(12, 0);
    msg[5] = 1;  // qdcount = 1
    msg.push_back(0x40);
    msg.push_back('x');
    EXPECT_THROW(dissect_dns(msg), parse_error);
}

TEST(Dns, DissectorRejectsTrailingGarbage) {
    dns_generator gen(3);
    annotated_message q = gen.next();
    q.bytes.push_back(0xff);
    EXPECT_THROW(dissect_dns(q.bytes), parse_error);
}

TEST(Nbns, NameEncodingIs34Bytes) {
    const byte_vector encoded = encode_netbios_name("FILESERVER01", 0x00);
    ASSERT_EQ(encoded.size(), 34u);
    EXPECT_EQ(encoded[0], 0x20);
    EXPECT_EQ(encoded.back(), 0x00);
    // Half-ASCII: all label chars in 'A'..'P'.
    for (std::size_t i = 1; i < 33; ++i) {
        EXPECT_GE(encoded[i], 'A');
        EXPECT_LE(encoded[i], 'P');
    }
}

TEST(Nbns, EncodingRejectsLongNames) {
    EXPECT_THROW(encode_netbios_name("ANAMEWAYTOOLONGFORNETBIOS", 0), precondition_error);
}

TEST(Nbns, SuffixDistinguishesServices) {
    const byte_vector a = encode_netbios_name("HOST", 0x00);
    const byte_vector b = encode_netbios_name("HOST", 0x20);
    EXPECT_NE(a, b);
}

TEST(Dhcp, FixedHeaderLayout) {
    const trace t = generate_trace("DHCP", 20, 13);
    for (const auto& m : t.messages) {
        ASSERT_GE(m.bytes.size(), 241u);
        EXPECT_TRUE(m.bytes[0] == 1 || m.bytes[0] == 2);  // op
        EXPECT_EQ(m.bytes[1], 1);                          // htype ethernet
        EXPECT_EQ(m.bytes[2], 6);                          // hlen
        EXPECT_EQ(get_u32_be(m.bytes, 236), 0x63825363u);  // magic cookie
        EXPECT_EQ(m.bytes.back(), 255u);                   // end option
    }
}

TEST(Dhcp, DoraCycleSharesTransactionId) {
    dhcp_generator gen(17);
    const annotated_message discover = gen.next();
    const annotated_message offer = gen.next();
    const annotated_message request = gen.next();
    const annotated_message ack = gen.next();
    const std::uint32_t xid = get_u32_be(discover.bytes, 4);
    EXPECT_EQ(get_u32_be(offer.bytes, 4), xid);
    EXPECT_EQ(get_u32_be(request.bytes, 4), xid);
    EXPECT_EQ(get_u32_be(ack.bytes, 4), xid);
    // Server messages carry the offered address in yiaddr.
    EXPECT_NE(get_u32_be(offer.bytes, 16), 0u);
    EXPECT_EQ(get_u32_be(offer.bytes, 16), get_u32_be(ack.bytes, 16));
}

TEST(Dhcp, DissectorRejectsMissingCookie) {
    byte_vector msg(241, 0);
    EXPECT_THROW(dissect_dhcp(msg), parse_error);
}

TEST(Smb, HeaderMagicAndSignatureEntropy) {
    const trace t = generate_trace("SMB", 64, 23);
    byte_set signatures;
    for (const auto& m : t.messages) {
        ASSERT_GE(m.bytes.size(), 32u);
        EXPECT_EQ(m.bytes[0], 0xff);
        EXPECT_EQ(m.bytes[1], 'S');
        signatures.insert(byte_vector(m.bytes.begin() + 14, m.bytes.begin() + 22));
    }
    // Signed sessions carry random (distinct) signatures, unsigned sessions
    // zeroed ones: expect many distinct values plus the zero signature (the
    // paper's confusion source requires high-entropy signature content).
    EXPECT_GT(signatures.size(), 20u);
    EXPECT_TRUE(signatures.count(byte_vector(8, 0x00)) == 1);
}

TEST(Smb, FiletimesShareHighBytes) {
    // FILETIME fields are little-endian with near-constant top bytes 0x01cc:
    // the last wire byte must be 0x01 and the second-to-last 0xcc.
    smb_generator gen(29);
    bool saw_filetime = false;
    for (int i = 0; i < 16; ++i) {
        const annotated_message m = gen.next();
        for (const field_annotation& f : m.fields) {
            if (f.type == field_type::timestamp) {
                saw_filetime = true;
                EXPECT_EQ(m.bytes[f.offset + 7], 0x01);
                EXPECT_EQ(m.bytes[f.offset + 6], 0xcc);
            }
        }
    }
    EXPECT_TRUE(saw_filetime);
}

TEST(Smb, DissectorRejectsUnknownCommand) {
    smb_generator gen(1);
    annotated_message m = gen.next();
    m.bytes[4] = 0x99;  // unsupported command
    EXPECT_THROW(dissect_smb(m.bytes), parse_error);
}

TEST(Awdl, ActionFrameHeaderAndTlvWalk) {
    const trace t = generate_trace("AWDL", 40, 31);
    for (const auto& m : t.messages) {
        EXPECT_EQ(m.bytes[0], 0x7f);  // vendor-specific category
        EXPECT_EQ(m.bytes[4], 0x08);  // AWDL action frame type
        // TLV walk terminates exactly at the end (dissector validates).
        EXPECT_NO_THROW(dissect_awdl(m.bytes));
    }
}

TEST(Awdl, MessagesHaveNoIpFlowContext) {
    const trace t = generate_trace("AWDL", 5, 31);
    for (const auto& m : t.messages) {
        EXPECT_EQ(m.flow.src_ip.value, 0u);
    }
}

TEST(Awdl, TruncatedTlvRejected) {
    awdl_generator gen(2);
    annotated_message m = gen.next();
    m.bytes.resize(m.bytes.size() - 1);
    EXPECT_THROW(dissect_awdl(m.bytes), parse_error);
}

TEST(Au, MeasurementsLookStaticInHighBytesRandomInLowBytes) {
    // The paper's AU challenge: 32-bit measurements whose high bytes are
    // near-constant per session while low bytes fluctuate.
    au_generator gen(37);
    std::size_t measured = 0;
    for (int i = 0; i < 30; ++i) {
        const annotated_message m = gen.next();
        std::set<std::uint16_t> highs;
        std::set<std::uint16_t> lows;
        for (const field_annotation& f : m.fields) {
            if (f.type != field_type::measurement) {
                continue;
            }
            ++measured;
            highs.insert(get_u16_be(m.bytes, f.offset));
            lows.insert(get_u16_be(m.bytes, f.offset + 2));
        }
        if (!highs.empty()) {
            EXPECT_LE(highs.size(), 2u) << "high bytes should be near-constant";
            EXPECT_GE(lows.size(), 3u) << "low bytes should fluctuate";
        }
    }
    EXPECT_GT(measured, 0u);
}

TEST(Au, AuthTagTailsEveryMessage) {
    const trace t = generate_trace("AU", 30, 41);
    for (const auto& m : t.messages) {
        const field_annotation& last = m.fields.back();
        EXPECT_EQ(last.type, field_type::signature);
        EXPECT_EQ(last.length, 16u);
        EXPECT_EQ(last.offset + last.length, m.bytes.size());
    }
}

TEST(Au, DissectorRejectsBadMagicAndLength) {
    au_generator gen(1);
    annotated_message m = gen.next();
    byte_vector bad = m.bytes;
    bad[0] = 0x00;
    EXPECT_THROW(dissect_au(bad), parse_error);
    byte_vector cut = m.bytes;
    cut.pop_back();
    EXPECT_THROW(dissect_au(cut), parse_error);
}

TEST(FieldTypes, NamesAreStable) {
    EXPECT_STREQ(to_string(field_type::timestamp), "timestamp");
    EXPECT_STREQ(to_string(field_type::signature), "signature");
    EXPECT_STREQ(to_string(field_type::chars), "chars");
    EXPECT_STREQ(to_string(field_type::measurement), "measurement");
}

TEST(Validation, DetectsGapsOverlapsAndShortCoverage) {
    annotated_message m;
    m.bytes = {1, 2, 3, 4};
    m.fields = {{0, 2, field_type::bytes, "a"}, {2, 2, field_type::bytes, "b"}};
    EXPECT_NO_THROW(validate_annotations(m));
    m.fields[1].offset = 3;  // gap
    EXPECT_THROW(validate_annotations(m), error);
    m.fields[1].offset = 1;  // overlap
    EXPECT_THROW(validate_annotations(m), error);
    m.fields = {{0, 2, field_type::bytes, "a"}};  // short coverage
    EXPECT_THROW(validate_annotations(m), error);
    m.fields = {{0, 2, field_type::bytes, "a"}, {2, 0, field_type::bytes, "z"}};
    EXPECT_THROW(validate_annotations(m), error);  // zero length
}

}  // namespace
}  // namespace ftc::protocols
