// Synthetic trace generators.
//
// These produce address traces with controlled locality properties. They are
// used by unit tests (known ground truth) and by benches that sweep profile
// shapes beyond what the bundled AR32 kernels produce.
//
// All trace families share one per-access engine, SyntheticGenerator:
// materialize_synthetic and the streaming SyntheticSource
// (trace/source.hpp) both drain the same generator, so the chunked stream
// is bit-identical to the materialized trace by construction — the RNG
// consumption order per access is defined exactly once.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/rng.hpp"
#include "trace/trace.hpp"

namespace memopt {

/// Parameters shared by the synthetic generators.
struct SyntheticParams {
    std::uint64_t span_bytes = 64 * 1024;  ///< covered address space (power of two)
    std::size_t num_accesses = 100000;     ///< trace length
    double write_fraction = 0.3;           ///< probability an access is a write
    std::uint64_t seed = 1;                ///< RNG seed (deterministic output)
};

/// The synthetic trace families.
enum class SyntheticKind {
    /// Uniform random addresses over the span. The least informative
    /// profile: partitioning gains little, clustering gains nothing.
    Uniform,
    /// Scattered hotspots: `num_hotspots` regions of `hotspot_bytes` each
    /// sit at random, spread-out positions; `hot_fraction` of accesses hit
    /// a hotspot (skewed towards hotspot 0), the rest are uniform
    /// background. The profile class that motivates address clustering:
    /// hot data exists but is NOT contiguous, so plain partitioning cannot
    /// isolate it into a small bank.
    Hotspot,
    /// Sequential sweep of the span with step `stride` (array streaming).
    Stride,
    /// The first half of the accesses works in the lower half of the span,
    /// the second half in the upper: disjoint working sets in two program
    /// phases (favourable to partitioning even without clustering).
    TwoPhase,
    /// Multi-core: core 0 writes a shared region, the others read it.
    ProducerConsumer,
};

/// Full description of one synthetic trace: the family plus every knob.
/// Kind-specific fields are ignored by the other kinds.
struct SyntheticSpec {
    SyntheticKind kind = SyntheticKind::Uniform;
    SyntheticParams base;
    // Hotspot only:
    std::size_t num_hotspots = 8;
    std::uint64_t hotspot_bytes = 1024;
    double hot_fraction = 0.9;
    // Stride only:
    std::uint64_t stride = 4;
    // Multi-core (producer-consumer, and per_core_specs fan-out):
    unsigned cores = 1;    ///< cores the trace family targets
    unsigned core_id = 0;  ///< which core this spec generates for (< cores)
    std::uint64_t shared_bytes = 4096;  ///< producer-consumer shared region size
    double shared_fraction = 0.6;       ///< probability an access hits the shared region
};

/// Display name ("uniform", "hotspot", "stride", "two-phase",
/// "producer-consumer").
std::string synthetic_kind_name(SyntheticKind kind);

/// The kind a display name names, or nullopt.
std::optional<SyntheticKind> parse_synthetic_kind(std::string_view name);

/// Parse a spec string of the form
///   "<kind>[,key=value]..."
/// with kind in {uniform, hotspot, stride, two-phase, producer-consumer}
/// and keys span, n, seed, write, hotspots, hotspot-bytes, hot-frac,
/// stride, cores, shared-bytes, shared-frac —
/// e.g. "uniform,span=16777216,n=100000000,seed=7". Throws memopt::Error
/// on malformed input and on `cores` outside [1, 64]. Parameter validity
/// itself is checked when the generator is constructed.
SyntheticSpec parse_synthetic_spec(std::string_view text);

/// Fan a spec out to `spec.cores` per-core specs: core c gets core_id = c
/// and a per-core remix of the seed, so the streams are decorrelated but
/// the whole family is still determined by the one parent seed. Each core
/// issues the full `n` accesses of the parent spec.
std::vector<SyntheticSpec> per_core_specs(const SyntheticSpec& spec);

/// Per-access synthetic trace engine. The i-th next() call returns access i
/// of the deterministic sequence the spec describes; reset() rewinds to
/// access 0. Construction validates the spec (memopt::Error on bad
/// parameters).
class SyntheticGenerator {
public:
    explicit SyntheticGenerator(const SyntheticSpec& spec);

    const SyntheticSpec& spec() const { return spec_; }
    std::uint64_t size() const { return spec_.base.num_accesses; }
    bool done() const { return i_ >= spec_.base.num_accesses; }

    /// Produce the next access. Must not be called when done().
    MemAccess next();

    /// Rewind to access 0 (the replay is bit-identical).
    void reset();

private:
    SyntheticSpec spec_;
    Rng rng_;
    Rng rng_start_;  ///< RNG state after construction-time precomputation
    std::vector<std::uint64_t> bases_;  ///< hotspot base addresses
    std::size_t i_ = 0;
    std::uint64_t stride_addr_ = 0;
};

/// Materialize the full trace a spec describes (drains one generator).
MemTrace materialize_synthetic(const SyntheticSpec& spec);

/// Values stream with controlled smoothness, used by compression tests:
/// generates `n` 32-bit words where consecutive words differ by a bounded
/// random delta with probability `smooth_prob`, and are random otherwise.
std::vector<std::uint32_t> smooth_word_stream(std::size_t n, double smooth_prob,
                                              std::uint32_t max_delta, std::uint64_t seed);

}  // namespace memopt
