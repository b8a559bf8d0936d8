// Unit tests for the FieldHunter baseline (fieldhunter/fieldhunter.hpp).
#include "fieldhunter/fieldhunter.hpp"

#include <gtest/gtest.h>

#include "protocols/registry.hpp"
#include "util/rng.hpp"

namespace ftc::fieldhunter {
namespace {

using pcap::flow_key;
using pcap::make_ipv4;
using pcap::transport;

flow_key client_flow(std::uint8_t host, std::uint16_t sport) {
    return {make_ipv4(10, 0, 0, host), make_ipv4(10, 0, 1, 1), sport, 99, transport::udp};
}

bool has_field(const fh_result& r, fh_kind kind, std::size_t offset) {
    for (const fh_field& f : r.fields) {
        if (f.kind == kind && f.offset == offset) {
            return true;
        }
    }
    return false;
}

TEST(FieldHunter, FindsMessageTypeFromDirectionCorrelation) {
    // Request byte 0 is 0x01 or 0x03; response byte 0 is request + 1.
    rng rand(1);
    std::vector<fh_message> messages;
    for (int i = 0; i < 20; ++i) {
        const std::uint8_t req_type = i % 2 == 0 ? 0x01 : 0x03;
        fh_message req;
        req.flow = client_flow(2, static_cast<std::uint16_t>(10000 + i));
        req.is_request = true;
        req.bytes = {req_type, 0x00};
        put_bytes(req.bytes, rand.bytes(6));
        fh_message resp;
        resp.flow = req.flow.reversed();
        resp.is_request = false;
        resp.bytes = {static_cast<std::uint8_t>(req_type + 1), 0x00};
        put_bytes(resp.bytes, rand.bytes(6));
        messages.push_back(std::move(req));
        messages.push_back(std::move(resp));
    }
    const fh_result r = infer(messages);
    EXPECT_TRUE(has_field(r, fh_kind::msg_type, 0));
}

TEST(FieldHunter, FindsLengthField) {
    // 16-bit big-endian total length at offset 2.
    rng rand(2);
    std::vector<fh_message> messages;
    for (int i = 0; i < 30; ++i) {
        const std::size_t body = 8 + rand.uniform(0, 60);
        fh_message m;
        m.flow = client_flow(3, static_cast<std::uint16_t>(11000 + i));
        m.is_request = true;
        m.bytes = {0xaa, 0xbb};
        put_u16_be(m.bytes, static_cast<std::uint16_t>(4 + body));
        put_bytes(m.bytes, rand.bytes(body));
        messages.push_back(std::move(m));
    }
    const fh_result r = infer(messages);
    // The length lives at [2, 4); the rule may pick any window containing
    // it (a wider window that includes constant prefix bytes correlates
    // equally well).
    bool found = false;
    for (const fh_field& f : r.fields) {
        if (f.kind == fh_kind::msg_len && f.offset <= 2 && f.offset + f.width >= 4) {
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

/// A big-endian 4-byte id followed by four fill bytes, sized once: GCC 12
/// misreads a push_back-then-insert growth sequence on one vector as an
/// overread (-Wstringop-overread).
byte_vector id_then_fill(std::uint32_t id, std::uint8_t fill) {
    byte_vector out(8, fill);
    for (std::size_t i = 0; i < 4; ++i) {
        out[i] = static_cast<std::uint8_t>(id >> (24 - 8 * i));
    }
    return out;
}

TEST(FieldHunter, FindsTransactionId) {
    // Random 4-byte id at offset 0, echoed verbatim by the response.
    rng rand(3);
    std::vector<fh_message> messages;
    for (int i = 0; i < 16; ++i) {
        const std::uint32_t txid = static_cast<std::uint32_t>(rand());
        fh_message req;
        req.flow = client_flow(4, static_cast<std::uint16_t>(12000 + i));
        req.is_request = true;
        req.bytes = id_then_fill(txid, 0x11);
        fh_message resp;
        resp.flow = req.flow.reversed();
        resp.is_request = false;
        resp.bytes = id_then_fill(txid, 0x22);
        messages.push_back(std::move(req));
        messages.push_back(std::move(resp));
    }
    const fh_result r = infer(messages);
    EXPECT_TRUE(has_field(r, fh_kind::trans_id, 0));
}

TEST(FieldHunter, FindsHostId) {
    // 4-byte value at offset 4 that is a function of the source host.
    std::vector<fh_message> messages;
    for (int i = 0; i < 24; ++i) {
        const std::uint8_t host = static_cast<std::uint8_t>(2 + (i % 3));
        fh_message m;
        m.flow = client_flow(host, static_cast<std::uint16_t>(13000 + i));
        m.is_request = true;
        put_u32_be(m.bytes, 0x01020304);  // constant bytes get skipped
        put_u32_be(m.bytes, 0xbeef0000u + host);
        messages.push_back(std::move(m));
    }
    const fh_result r = infer(messages);
    EXPECT_TRUE(has_field(r, fh_kind::host_id, 4));
}

TEST(FieldHunter, FindsSessionId) {
    // 4-byte value constant per flow but shared across both hosts'
    // messages of that flow; differs across flows from the same host.
    std::vector<fh_message> messages;
    for (int session = 0; session < 6; ++session) {
        const flow_key flow = client_flow(2, static_cast<std::uint16_t>(14000 + session));
        for (int i = 0; i < 4; ++i) {
            fh_message m;
            m.flow = i % 2 == 0 ? flow : flow.reversed();
            m.is_request = i % 2 == 0;
            put_u32_be(m.bytes, 0x05060708);
            put_u32_be(m.bytes, 0xcafe0000u + static_cast<std::uint32_t>(session));
            messages.push_back(std::move(m));
        }
    }
    const fh_result r = infer(messages);
    EXPECT_TRUE(has_field(r, fh_kind::session_id, 4));
}

TEST(FieldHunter, FindsAccumulator) {
    // Per-flow monotonically increasing 4-byte counter at offset 4.
    std::vector<fh_message> messages;
    for (int flow_idx = 0; flow_idx < 2; ++flow_idx) {
        const flow_key flow = client_flow(2, static_cast<std::uint16_t>(15000 + flow_idx));
        for (int i = 0; i < 6; ++i) {
            fh_message m;
            m.flow = flow;
            m.is_request = true;
            put_u32_be(m.bytes, 0xffffffff);  // constant filler
            put_u32_be(m.bytes, static_cast<std::uint32_t>(1000 * flow_idx + i * 7));
            messages.push_back(std::move(m));
        }
    }
    const fh_result r = infer(messages);
    // The counter occupies [4, 8); the rule may latch onto any window that
    // overlaps it (e.g. the varying low bytes only).
    bool found = false;
    for (const fh_field& f : r.fields) {
        if (f.kind == fh_kind::accumulator && f.offset < 8 && f.offset + f.width > 4) {
            found = true;
        }
    }
    EXPECT_TRUE(found);
}

TEST(FieldHunter, DirectionFlagIsNotAHostId) {
    // Many hosts sharing only two values (a request/response flag) must not
    // pass the Host-ID rule: an identifier has to *identify* its host.
    std::vector<fh_message> messages;
    for (int i = 0; i < 40; ++i) {
        const std::uint8_t host = static_cast<std::uint8_t>(2 + (i % 10));
        fh_message m;
        m.flow = client_flow(host, static_cast<std::uint16_t>(17000 + i));
        m.is_request = true;
        put_u32_be(m.bytes, 0x01020304);
        // All hosts carry the same "flag" value; two hosts use the variant.
        put_u32_be(m.bytes, host <= 3 ? 0x00000100u : 0x00008180u);
        messages.push_back(std::move(m));
    }
    const fh_result r = infer(messages);
    EXPECT_FALSE(has_field(r, fh_kind::host_id, 4));
}

TEST(FieldHunter, NoFlowContextDisablesContextRules) {
    // AWDL/AU situation: no flow context. Host/session/accumulator and the
    // transaction pairing cannot apply.
    rng rand(4);
    std::vector<fh_message> messages;
    for (int i = 0; i < 20; ++i) {
        fh_message m;
        m.has_flow = false;
        m.is_request = true;
        put_u32_be(m.bytes, static_cast<std::uint32_t>(i));  // looks like an accumulator
        put_bytes(m.bytes, rand.bytes(8));
        messages.push_back(std::move(m));
    }
    const fh_result r = infer(messages);
    for (const fh_field& f : r.fields) {
        EXPECT_NE(f.kind, fh_kind::host_id);
        EXPECT_NE(f.kind, fh_kind::session_id);
        EXPECT_NE(f.kind, fh_kind::accumulator);
        EXPECT_NE(f.kind, fh_kind::trans_id);
        EXPECT_NE(f.kind, fh_kind::msg_type);
    }
}

TEST(FieldHunter, CoverageAccountsTypedBytes) {
    rng rand(5);
    std::vector<fh_message> messages;
    for (int i = 0; i < 16; ++i) {
        const std::uint32_t txid = static_cast<std::uint32_t>(rand());
        fh_message req;
        req.flow = client_flow(4, static_cast<std::uint16_t>(16000 + i));
        req.is_request = true;
        put_u32_be(req.bytes, txid);
        put_fill(req.bytes, 12, 0x00);
        fh_message resp = req;
        resp.flow = req.flow.reversed();
        resp.is_request = false;
        messages.push_back(std::move(req));
        messages.push_back(std::move(resp));
    }
    const fh_result r = infer(messages);
    EXPECT_EQ(r.total_bytes, 32u * 16u);
    if (!r.fields.empty()) {
        EXPECT_GT(r.typed_bytes, 0u);
        EXPECT_LE(r.typed_bytes, r.total_bytes);
        EXPECT_GT(r.coverage(), 0.0);
        EXPECT_LT(r.coverage(), 1.0);
    }
}

TEST(FieldHunter, EmptyInputYieldsEmptyResult) {
    const fh_result r = infer({});
    EXPECT_TRUE(r.fields.empty());
    EXPECT_EQ(r.total_bytes, 0u);
    EXPECT_DOUBLE_EQ(r.coverage(), 0.0);
}

TEST(FieldHunter, ClaimedOffsetsDoNotOverlap) {
    const protocols::trace t = protocols::generate_trace("DNS", 200, 9);
    const fh_result r = infer(from_trace(t));
    std::vector<bool> claimed(512, false);
    for (const fh_field& f : r.fields) {
        for (std::size_t i = f.offset; i < f.offset + f.width; ++i) {
            ASSERT_LT(i, claimed.size());
            EXPECT_FALSE(claimed[i]) << "offset " << i << " claimed twice";
            claimed[i] = true;
        }
    }
}

TEST(FieldHunter, CoverageOnRealProtocolsStaysLow) {
    // The paper's point: FieldHunter types only a few fields per message
    // (~3 % average coverage) while clustering covers most bytes.
    double total_coverage = 0.0;
    int count = 0;
    for (const char* proto : {"NTP", "DNS", "DHCP"}) {
        const protocols::trace t = protocols::generate_trace(proto, 300, 17);
        const fh_result r = infer(from_trace(t));
        EXPECT_LT(r.coverage(), 0.35) << proto;
        total_coverage += r.coverage();
        ++count;
    }
    EXPECT_LT(total_coverage / count, 0.2);
}

TEST(FieldHunter, AwdlAndAuYieldNoContextFields) {
    for (const char* proto : {"AWDL", "AU"}) {
        const protocols::trace t = protocols::generate_trace(proto, 60, 19);
        const fh_result r = infer(from_trace(t));
        for (const fh_field& f : r.fields) {
            EXPECT_TRUE(f.kind == fh_kind::msg_len) << proto << ": context rule fired";
        }
    }
}

TEST(FieldHunter, DnsTransactionIdFound) {
    const protocols::trace t = protocols::generate_trace("DNS", 300, 23);
    const fh_result r = infer(from_trace(t));
    EXPECT_TRUE(has_field(r, fh_kind::trans_id, 0)) << "DNS txid at offset 0 not found";
}

TEST(FieldHunter, KindNamesStable) {
    EXPECT_STREQ(to_string(fh_kind::msg_type), "MSG-Type");
    EXPECT_STREQ(to_string(fh_kind::accumulator), "Accumulator");
}

}  // namespace
}  // namespace ftc::fieldhunter
