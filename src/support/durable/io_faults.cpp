#include "support/durable/io_faults.hpp"

#include <cstdlib>
#include <optional>

#include "support/bytes.hpp"
#include "support/rng.hpp"
#include "support/string_util.hpp"

namespace memopt {

IoFaultSpec parse_io_fault_spec(const std::string& spec) {
    IoFaultSpec out;
    const std::string trimmed{trim(spec)};
    if (trimmed.empty()) return out;
    const auto fields = split(trimmed, ',');
    require(fields.size() >= 2, "MEMOPT_IO_FAULTS: expected 'seed,rate[,max=N]'");
    const auto seed = parse_int(trim(fields[0]));
    require(seed.has_value() && *seed >= 0, "MEMOPT_IO_FAULTS: bad seed");
    out.seed = static_cast<std::uint64_t>(*seed);
    {
        const std::string rate_text{trim(fields[1])};
        char* end = nullptr;
        out.rate = std::strtod(rate_text.c_str(), &end);
        require(end != rate_text.c_str() && *end == '\0' && out.rate >= 0.0 && out.rate <= 1.0,
                "MEMOPT_IO_FAULTS: rate must be a probability in [0,1]");
    }
    for (std::size_t i = 2; i < fields.size(); ++i) {
        const std::string_view field = trim(fields[i]);
        if (field.rfind("max=", 0) == 0) {
            const auto n = parse_int(field.substr(4));
            require(n.has_value() && *n >= 0 && *n <= 64, "MEMOPT_IO_FAULTS: bad max=N");
            out.max_failures = static_cast<std::uint32_t>(*n);
        } else {
            throw Error("MEMOPT_IO_FAULTS: unknown field '" + std::string(field) + "'");
        }
    }
    out.enabled = out.rate > 0.0;
    return out;
}

bool IoFaultInjector::should_fail(std::string_view site, std::uint64_t unit,
                                  std::uint64_t attempt) const {
    if (!enabled() || attempt >= spec_.max_failures) return false;
    // mix64 folds the (seed, site, unit, attempt) tuple into one Rng seed.
    Rng rng(mix64(spec_.seed ^ fnv1a64(site)) ^ mix64(unit) ^ mix64(attempt + 1));
    return rng.next_bool(spec_.rate);
}

void IoFaultInjector::maybe_fail(std::string_view site, std::uint64_t unit,
                                 std::uint64_t attempt) const {
    if (should_fail(site, unit, attempt)) {
        throw TransientIoError("injected I/O fault: site '" + std::string(site) + "', unit " +
                               std::to_string(unit) + ", attempt " + std::to_string(attempt));
    }
}

namespace {

std::optional<IoFaultInjector>& process_injector() {
    static std::optional<IoFaultInjector> injector;
    return injector;
}

}  // namespace

const IoFaultInjector& io_faults() {
    // Magic-static lambda so the first call is race-free even when it comes
    // from inside a parallel region; set_io_faults() beforehand wins.
    static const bool initialized = [] {
        auto& injector = process_injector();
        if (!injector.has_value()) {
            const char* env = std::getenv("MEMOPT_IO_FAULTS");
            injector.emplace(env != nullptr ? parse_io_fault_spec(env) : IoFaultSpec{});
        }
        return true;
    }();
    (void)initialized;
    return *process_injector();
}

void set_io_faults(const IoFaultSpec& spec) { process_injector().emplace(spec); }

}  // namespace memopt
