#include "testing/fault_plan.hpp"

#include <cstdlib>
#include <cstring>
#include <string>

#include "util/error.hpp"
#include "util/parse.hpp"

namespace ftc::testing {

bool arm_alloc_faults_from_env() {
    mem::fault_plan plan;
    if (const char* nth = std::getenv("FTC_ALLOC_FAIL_NTH")) {
        plan.fail_nth = util::parse_u64(nth, "FTC_ALLOC_FAIL_NTH");
    }
    if (const char* above = std::getenv("FTC_ALLOC_FAIL_ABOVE_BYTES")) {
        plan.fail_above_bytes = util::parse_size_bytes(above, "FTC_ALLOC_FAIL_ABOVE_BYTES");
    }
    if (!plan.armed()) {
        return false;
    }
    mem::set_fault_plan(plan);
    return true;
}

util::net::io_fault parse_io_fault_kind(const char* name) {
    if (std::strcmp(name, "short") == 0) {
        return util::net::io_fault::short_io;
    }
    if (std::strcmp(name, "eintr") == 0) {
        return util::net::io_fault::fake_eintr;
    }
    if (std::strcmp(name, "reset") == 0) {
        return util::net::io_fault::reset;
    }
    if (std::strcmp(name, "stall") == 0) {
        return util::net::io_fault::stall;
    }
    if (std::strcmp(name, "corrupt-spool") == 0) {
        return util::net::io_fault::corrupt_spool;
    }
    throw ftc::error(std::string{"FTC_SOCK_FAIL_KIND: unknown fault kind '"} + name +
                     "' (expected short|eintr|reset|stall|corrupt-spool)");
}

bool arm_sock_faults_from_env() {
    util::net::io_fault_plan plan;
    if (const char* nth = std::getenv("FTC_SOCK_FAIL_NTH")) {
        plan.fail_nth = util::parse_u64(nth, "FTC_SOCK_FAIL_NTH");
    }
    plan.kind = util::net::io_fault::reset;
    if (const char* kind = std::getenv("FTC_SOCK_FAIL_KIND")) {
        plan.kind = parse_io_fault_kind(kind);
    }
    if (!plan.armed()) {
        return false;
    }
    util::net::set_io_fault_plan(plan);
    return true;
}

}  // namespace ftc::testing
