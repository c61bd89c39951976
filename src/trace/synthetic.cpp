#include "trace/synthetic.hpp"

#include <algorithm>
#include <cstdlib>
#include <string>

#include "support/bits.hpp"
#include "support/string_util.hpp"

namespace memopt {

namespace {
void validate(const SyntheticParams& p) {
    require(is_pow2(p.span_bytes), "synthetic: span_bytes must be a power of two");
    require(p.span_bytes >= 64, "synthetic: span too small");
    require(p.num_accesses > 0, "synthetic: num_accesses must be > 0");
    require(p.write_fraction >= 0.0 && p.write_fraction <= 1.0,
            "synthetic: write_fraction must be in [0,1]");
}

AccessKind pick_kind(Rng& rng, double write_fraction) {
    return rng.next_bool(write_fraction) ? AccessKind::Write : AccessKind::Read;
}

// Word-aligned address within [base, base+len).
std::uint64_t pick_addr(Rng& rng, std::uint64_t base, std::uint64_t len) {
    const std::uint64_t words = len / 4;
    return base + rng.next_below(words) * 4;
}

constexpr std::string_view kSyntheticKindNames[] = {"uniform", "hotspot", "stride", "two-phase",
                                                    "producer-consumer"};
}  // namespace

std::string synthetic_kind_name(SyntheticKind kind) {
    return std::string(enum_entry(kSyntheticKindNames, kind));
}

std::optional<SyntheticKind> parse_synthetic_kind(std::string_view name) {
    return parse_enum<SyntheticKind>(kSyntheticKindNames, name);
}

SyntheticSpec parse_synthetic_spec(std::string_view text) {
    const std::vector<std::string_view> fields = split(text, ',');
    require(!fields.empty() && !trim(fields[0]).empty(),
            "synthetic spec: missing kind (uniform|hotspot|stride|two-phase)");

    SyntheticSpec spec;
    const std::string kind = to_lower(trim(fields[0]));
    const auto parsed = parse_synthetic_kind(kind);
    if (!parsed) throw Error("synthetic spec: unknown kind '" + kind + "'");
    spec.kind = *parsed;

    auto parse_u64 = [](std::string_view key, std::string_view value) {
        const auto v = parse_int(value);
        require(v.has_value() && *v >= 0,
                "synthetic spec: key '" + std::string(key) +
                    "' expects a non-negative integer");
        return static_cast<std::uint64_t>(*v);
    };
    auto parse_f64 = [](std::string_view key, std::string_view value) {
        const std::string s(value);
        char* end = nullptr;
        const double v = std::strtod(s.c_str(), &end);
        require(end != s.c_str() && *end == '\0',
                "synthetic spec: key '" + std::string(key) + "' expects a number");
        return v;
    };

    for (std::size_t i = 1; i < fields.size(); ++i) {
        const std::string_view field = trim(fields[i]);
        if (field.empty()) continue;
        const auto eq = field.find('=');
        require(eq != std::string_view::npos,
                "synthetic spec: expected key=value, got '" + std::string(field) + "'");
        const std::string_view key = trim(field.substr(0, eq));
        const std::string_view value = trim(field.substr(eq + 1));
        if (key == "span") spec.base.span_bytes = parse_u64(key, value);
        else if (key == "n") spec.base.num_accesses =
            static_cast<std::size_t>(parse_u64(key, value));
        else if (key == "seed") spec.base.seed = parse_u64(key, value);
        else if (key == "write") spec.base.write_fraction = parse_f64(key, value);
        else if (key == "hotspots") spec.num_hotspots =
            static_cast<std::size_t>(parse_u64(key, value));
        else if (key == "hotspot-bytes") spec.hotspot_bytes = parse_u64(key, value);
        else if (key == "hot-frac") spec.hot_fraction = parse_f64(key, value);
        else if (key == "stride") spec.stride = parse_u64(key, value);
        else if (key == "cores") {
            const std::uint64_t cores = parse_u64(key, value);
            require(cores >= 1 && cores <= 64, "synthetic spec: key 'cores' must be in [1, 64]");
            spec.cores = static_cast<unsigned>(cores);
        }
        else if (key == "shared-bytes") spec.shared_bytes = parse_u64(key, value);
        else if (key == "shared-frac") spec.shared_fraction = parse_f64(key, value);
        else throw Error("synthetic spec: unknown key '" + std::string(key) + "'");
    }
    return spec;
}

std::vector<SyntheticSpec> per_core_specs(const SyntheticSpec& spec) {
    require(spec.cores >= 1 && spec.cores <= 64,
            "per_core_specs: cores must be in [1, 64]");
    std::vector<SyntheticSpec> out;
    out.reserve(spec.cores);
    for (unsigned c = 0; c < spec.cores; ++c) {
        SyntheticSpec s = spec;
        s.core_id = c;
        // Decorrelate the per-core RNG streams while keeping the whole
        // family a pure function of the parent seed.
        s.base.seed = spec.base.seed + 0x9E3779B97F4A7C15ULL * (c + 1);
        out.push_back(s);
    }
    return out;
}

SyntheticGenerator::SyntheticGenerator(const SyntheticSpec& spec)
    : spec_(spec), rng_(spec.base.seed), rng_start_(spec.base.seed) {
    validate(spec_.base);
    switch (spec_.kind) {
        case SyntheticKind::Uniform:
        case SyntheticKind::TwoPhase:
            break;
        case SyntheticKind::Hotspot: {
            require(spec_.num_hotspots > 0, "synthetic hotspot: need at least one hotspot");
            require(spec_.hotspot_bytes >= 16, "synthetic hotspot: hotspot too small");
            require(spec_.hot_fraction >= 0.0 && spec_.hot_fraction <= 1.0,
                    "synthetic hotspot: hot_fraction must be in [0,1]");
            // Division form: the product num_hotspots * hotspot_bytes can wrap.
            require(spec_.hotspot_bytes <= spec_.base.span_bytes / 2 / spec_.num_hotspots,
                    "synthetic hotspot: hotspots must cover at most half of the span");
            // Spread hotspot bases across the span: divide the span into
            // num_hotspots slices and place one hotspot at a random offset
            // inside each slice. This guarantees the hot data is maximally
            // non-contiguous.
            const std::uint64_t slice = spec_.base.span_bytes / spec_.num_hotspots;
            bases_.reserve(spec_.num_hotspots);
            for (std::size_t h = 0; h < spec_.num_hotspots; ++h) {
                const std::uint64_t max_off =
                    slice - std::min<std::uint64_t>(slice, spec_.hotspot_bytes);
                const std::uint64_t off =
                    max_off == 0 ? 0 : rng_.next_below(max_off + 1) & ~std::uint64_t{3};
                bases_.push_back(static_cast<std::uint64_t>(h) * slice + off);
            }
            break;
        }
        case SyntheticKind::Stride:
            require(spec_.stride >= 4 && spec_.stride % 4 == 0,
                    "synthetic stride: stride must be a multiple of 4");
            break;
        case SyntheticKind::ProducerConsumer:
            require(spec_.cores >= 1 && spec_.cores <= 64,
                    "producer-consumer: cores must be in [1, 64]");
            require(spec_.core_id < spec_.cores,
                    "producer-consumer: core_id must be < cores");
            require(spec_.shared_fraction >= 0.0 && spec_.shared_fraction <= 1.0,
                    "producer-consumer: shared_fraction must be in [0,1]");
            require(spec_.shared_bytes >= 16 && spec_.shared_bytes % 4 == 0,
                    "producer-consumer: shared_bytes must be a multiple of 4, >= 16");
            require(spec_.shared_bytes <= spec_.base.span_bytes / 2,
                    "producer-consumer: shared region must cover at most half of the span");
            require((spec_.base.span_bytes - spec_.shared_bytes) / spec_.cores >= 16,
                    "producer-consumer: private slice per core too small");
            break;
    }
    rng_start_ = rng_;  // replay point: seed mixing + precomputation done
}

MemAccess SyntheticGenerator::next() {
    MEMOPT_ASSERT_MSG(!done(), "SyntheticGenerator::next past the end");
    MemAccess a;
    a.cycle = i_;
    a.size = 4;
    // RNG consumption order per access is part of the format: address draws
    // first, then the kind draw (matching the evaluation order of the
    // original materializing generators).
    switch (spec_.kind) {
        case SyntheticKind::Uniform:
            a.addr = pick_addr(rng_, 0, spec_.base.span_bytes);
            a.kind = pick_kind(rng_, spec_.base.write_fraction);
            break;
        case SyntheticKind::Hotspot:
            if (rng_.next_bool(spec_.hot_fraction)) {
                // Skewed choice across hotspots (hotspot 0 hottest).
                const std::uint64_t h = rng_.next_zipf_like(spec_.num_hotspots, 0.35);
                a.addr = pick_addr(rng_, bases_[h], spec_.hotspot_bytes);
            } else {
                a.addr = pick_addr(rng_, 0, spec_.base.span_bytes);
            }
            a.kind = pick_kind(rng_, spec_.base.write_fraction);
            break;
        case SyntheticKind::Stride:
            a.addr = stride_addr_;
            a.kind = pick_kind(rng_, spec_.base.write_fraction);
            stride_addr_ += spec_.stride;
            if (stride_addr_ >= spec_.base.span_bytes) stride_addr_ = 0;
            break;
        case SyntheticKind::TwoPhase: {
            const std::uint64_t half = spec_.base.span_bytes / 2;
            const bool phase2 = i_ >= spec_.base.num_accesses / 2;
            a.addr = pick_addr(rng_, phase2 ? half : 0, half);
            a.kind = pick_kind(rng_, spec_.base.write_fraction);
            break;
        }
        case SyntheticKind::ProducerConsumer: {
            // Shared draw first, then the address draw, then — private
            // accesses only — the kind draw; a shared access's kind is
            // fixed by the core's role (core 0 produces, the rest consume).
            if (rng_.next_bool(spec_.shared_fraction)) {
                a.addr = pick_addr(rng_, 0, spec_.shared_bytes);
                a.kind = spec_.core_id == 0 ? AccessKind::Write : AccessKind::Read;
            } else {
                const std::uint64_t slice =
                    (spec_.base.span_bytes - spec_.shared_bytes) / spec_.cores;
                a.addr = pick_addr(rng_, spec_.shared_bytes + spec_.core_id * slice, slice);
                a.kind = pick_kind(rng_, spec_.base.write_fraction);
            }
            break;
        }
    }
    ++i_;
    return a;
}

void SyntheticGenerator::reset() {
    rng_ = rng_start_;
    i_ = 0;
    stride_addr_ = 0;
}

MemTrace materialize_synthetic(const SyntheticSpec& spec) {
    SyntheticGenerator gen(spec);
    MemTrace t;
    t.reserve(static_cast<std::size_t>(gen.size()));
    while (!gen.done()) t.add(gen.next());
    return t;
}

std::vector<std::uint32_t> smooth_word_stream(std::size_t n, double smooth_prob,
                                              std::uint32_t max_delta, std::uint64_t seed) {
    require(smooth_prob >= 0.0 && smooth_prob <= 1.0,
            "smooth_word_stream: smooth_prob must be in [0,1]");
    Rng rng(seed);
    std::vector<std::uint32_t> out;
    out.reserve(n);
    std::uint32_t prev = static_cast<std::uint32_t>(rng.next_u64());
    for (std::size_t i = 0; i < n; ++i) {
        std::uint32_t v = 0;
        if (i > 0 && rng.next_bool(smooth_prob)) {
            const auto delta = static_cast<std::int64_t>(rng.next_in(
                -static_cast<std::int64_t>(max_delta), static_cast<std::int64_t>(max_delta)));
            v = static_cast<std::uint32_t>(static_cast<std::int64_t>(prev) + delta);
        } else {
            v = static_cast<std::uint32_t>(rng.next_u64());
        }
        out.push_back(v);
        prev = v;
    }
    return out;
}

}  // namespace memopt
