#include "support/durable/retry.hpp"

#include <chrono>
#include <cmath>
#include <cstdlib>
#include <thread>

#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "support/string_util.hpp"

namespace memopt {

std::uint64_t RetryPolicy::delay_us(std::string_view site, std::uint64_t unit,
                                    std::uint32_t attempt) const {
    double nominal = static_cast<double>(base_delay_us) * std::pow(multiplier, attempt);
    const double ceiling = static_cast<double>(max_delay_us);
    if (nominal > ceiling) nominal = ceiling;
    Rng rng(mix64(jitter_seed ^ fnv1a64(site)) ^ mix64(unit) ^ mix64(attempt + 1));
    const double jittered = nominal * (1.0 + 0.5 * rng.next_double());
    return static_cast<std::uint64_t>(jittered);
}

void RetryPolicy::backoff(std::string_view site, std::uint64_t unit,
                          std::uint32_t attempt) const {
    const std::uint64_t us = delay_us(site, unit, attempt);
    if (enable_sleep && us > 0) {
        std::this_thread::sleep_for(std::chrono::microseconds(us));
    }
}

RetryPolicy parse_retry_policy(const std::string& spec) {
    RetryPolicy policy;
    const auto fields = split(trim(spec), ',');
    require(fields.size() >= 2 && fields.size() <= 3,
            "MEMOPT_IO_RETRY: expected 'max_attempts,base_us[,max_us]'");
    const auto attempts = parse_int(trim(fields[0]));
    require(attempts.has_value() && *attempts >= 1 && *attempts <= 64,
            "MEMOPT_IO_RETRY: max_attempts must be in [1,64]");
    policy.max_attempts = static_cast<std::uint32_t>(*attempts);
    const auto base = parse_int(trim(fields[1]));
    require(base.has_value() && *base >= 0, "MEMOPT_IO_RETRY: bad base_us");
    policy.base_delay_us = static_cast<std::uint64_t>(*base);
    if (fields.size() == 3) {
        const auto cap = parse_int(trim(fields[2]));
        require(cap.has_value() && *cap >= 0, "MEMOPT_IO_RETRY: bad max_us");
        policy.max_delay_us = static_cast<std::uint64_t>(*cap);
    }
    return policy;
}

const RetryPolicy& RetryPolicy::process() {
    static const RetryPolicy policy = [] {
        const char* env = std::getenv("MEMOPT_IO_RETRY");
        return env != nullptr ? parse_retry_policy(env) : RetryPolicy{};
    }();
    return policy;
}

}  // namespace memopt
