// Seeded I/O fault injection — the simulator's own execution faults.
//
// PR 3 injected faults into the *simulated* memory; this module injects
// them into the simulator's *own* I/O so the durable-execution layer can be
// exercised deterministically: transient open failures, short reads, and
// checksum-tripping bit flips surface as TransientIoError at the injection
// sites in the trace readers/writers, and the paired RetryPolicy
// (support/durable/retry.hpp) recovers from them.
//
// Determinism contract (same family as fault/inject): whether operation
// attempt `attempt` on unit `unit` of site `site` fails is a pure function
// of (spec.seed, site, unit, attempt) — never of call order, thread
// schedule, or wall clock. A failed attempt retried with attempt+1 draws an
// independent decision, and attempts >= spec.max_failures never fail, so a
// bounded retry loop with more than max_failures attempts always succeeds.
// Replaying a faulted run with the same seed reproduces the exact same
// failures in the exact same places.
//
// Activation: the process-wide injector parses the MEMOPT_IO_FAULTS
// environment variable once — "seed,rate[,max=N]" (e.g. "7,0.25" or
// "7,0.25,max=1"). Unset/empty means disabled: every site check is a single
// predictable branch and no RNG is touched.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>

#include "support/assert.hpp"

namespace memopt {

/// A retryable I/O failure: the operation may succeed if repeated.
/// Thrown by the fault-injection sites and by real-IO wrappers that can
/// distinguish transient conditions; RetryPolicy::run only retries this
/// type — structural corruption (plain memopt::Error) is never retried.
class TransientIoError : public Error {
public:
    using Error::Error;
};

struct IoFaultSpec {
    bool enabled = false;
    std::uint64_t seed = 0;
    double rate = 0.0;            ///< per-(site,unit,attempt) failure probability
    std::uint32_t max_failures = 2;  ///< attempts >= this never fail (bounds retries)
};

/// Parse "seed,rate[,max=N]". Throws memopt::Error on malformed input.
IoFaultSpec parse_io_fault_spec(const std::string& spec);

class IoFaultInjector {
public:
    explicit IoFaultInjector(const IoFaultSpec& spec) : spec_(spec) {}

    bool enabled() const { return spec_.enabled && spec_.rate > 0.0; }
    const IoFaultSpec& spec() const { return spec_; }

    /// Pure function of (seed, site, unit, attempt): true when that attempt
    /// is scheduled to fail. Always false for attempt >= max_failures.
    bool should_fail(std::string_view site, std::uint64_t unit, std::uint64_t attempt) const;

    /// Throw TransientIoError when should_fail(); no-op when disabled.
    void maybe_fail(std::string_view site, std::uint64_t unit, std::uint64_t attempt) const;

private:
    IoFaultSpec spec_;
};

/// The process-wide injector, configured from MEMOPT_IO_FAULTS on first
/// use. Tests override it with set_io_faults() (not thread-safe; call
/// outside parallel regions).
const IoFaultInjector& io_faults();
void set_io_faults(const IoFaultSpec& spec);

}  // namespace memopt
