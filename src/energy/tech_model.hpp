// Heterogeneous memory technology models and hybrid bank pools.
//
// Every bank used to be the same SRAM cut (energy/sram_model.hpp). This
// module generalizes the per-bank model to a *technology family* behind the
// same interface shape, so the partitioner can place hot clusters into fast
// SRAM and cold clusters into dense, low-leakage NVM, and gate idle banks
// dark-silicon style:
//
//   * Sram       — the reference model, arithmetic-identical to
//                  SramEnergyModel (an all-SRAM pool reproduces the legacy
//                  evaluation bit for bit);
//   * Edram      — denser array, cheaper bitlines and lower standby leakage,
//                  but retention is dynamic: a periodic refresh sweep burns
//                  energy in proportion to powered (non-gated) time;
//   * SttMram    — non-volatile: near-zero leakage and free gating (the cell
//                  keeps its state with the power rail off), read energy
//                  close to SRAM, writes several times more expensive —
//                  the classic cold-data technology;
//   * DrowsySram — SRAM with a retentive low-voltage standby state (the
//                  sleepy bank of the leakage-aware study and of the drowsy
//                  fault scaling, both replayed by partition/hybrid.hpp):
//                  gating is cheap to enter/exit and keeps state, but only
//                  cuts leakage to a fraction instead of (almost) zero.
//
// The technology constants are qualitative reproductions of the
// heterogeneous-memory design points in the dark-silicon embedded CMP
// literature (see PAPERS.md): what matters for the optimization story is
// the *ordering* of the tradeoffs (STT-MRAM writes >> reads, eDRAM refresh
// scales with powered time, drowsy retention saves less than a full gate),
// not absolute picojoules.
#pragma once

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "energy/sram_model.hpp"

namespace memopt {

/// The memory technologies a bank of the hybrid pool can be built in.
enum class MemTechnology {
    Sram,        ///< reference 6T SRAM (legacy model, bit-identical)
    Edram,       ///< embedded DRAM: dense, low leakage, needs refresh
    SttMram,     ///< STT-MRAM: non-volatile, asymmetric read/write
    DrowsySram,  ///< SRAM with retentive drowsy standby
};

/// Display name ("sram", "edram", "sttmram", "drowsy").
const char* technology_name(MemTechnology tech);

/// The technology a display name names, or nullopt.
std::optional<MemTechnology> parse_technology(std::string_view name);

/// Per-technology scaling factors applied on top of the SRAM base model,
/// plus the refresh and gating constants that have no SRAM counterpart. All factors are relative to SramEnergyModel at the same
/// capacity; SRAM is all-ones with no refresh so it degenerates to the
/// legacy arithmetic.
struct TechFactors {
    double read_factor = 1.0;       ///< read energy vs SRAM
    double write_factor = 1.0;      ///< write energy vs SRAM
    double leak_factor = 1.0;       ///< standby leakage vs SRAM
    /// Refresh power while the bank is powered [pW per byte]; 0 = static
    /// retention. Charged over *powered* (non-gated) cycles only — a gated
    /// eDRAM bank is dark and loses its contents instead of refreshing.
    double refresh_pw_per_byte = 0.0;
    /// Leakage while power-gated, as a fraction of the technology's own
    /// standby leakage (0 = perfect gate).
    double gate_leak_factor = 0.0;
    double gate_wake_pj = 0.0;      ///< energy to re-activate a gated bank
};

/// The default design point of `tech` (see the header comment for the
/// rationale behind each ordering).
const TechFactors& technology_factors(MemTechnology tech);

/// Energy model of one bank in a given technology. Mirrors the
/// SramEnergyModel interface (read/write/leakage queries are pure, the
/// object is cheap to copy) and adds the refresh and gating terms. For
/// MemTechnology::Sram every query returns the exact SramEnergyModel
/// value — no factor is applied, so results are bit-identical to the
/// legacy model.
class TechEnergyModel {
public:
    /// `size_bytes` power of two and >= 16, as in SramEnergyModel. The
    /// base is an unprotected 32-bit SramEnergyModel of that size; the
    /// factors are the technology's standard design point.
    TechEnergyModel(MemTechnology tech, std::uint64_t size_bytes);

    MemTechnology technology() const { return tech_; }
    const TechFactors& factors() const { return factors_; }
    std::uint64_t size_bytes() const { return size_bytes_; }

    /// Energy of one read / write access [pJ].
    double read_energy() const { return read_pj_; }
    double write_energy() const { return write_pj_; }

    /// Standby (powered, not gated) leakage power [pW].
    double leakage_pw() const { return leak_pw_; }

    /// Leakage energy [pJ] over `cycles` powered cycles of kCycleNs.
    double leakage_energy(std::uint64_t cycles) const;

    /// Refresh energy [pJ] over `cycles` powered cycles (0 for static
    /// technologies). Scales linearly with time: the refresh sweep is
    /// periodic, so twice the powered time costs twice the refresh.
    double refresh_energy(std::uint64_t cycles) const;

    /// Leakage energy [pJ] over `cycles` spent power-gated.
    double gated_leakage_energy(std::uint64_t cycles) const;

    /// Energy to re-activate the bank after a gate period [pJ].
    double gate_wake_energy() const { return factors_.gate_wake_pj; }

private:
    MemTechnology tech_;
    TechFactors factors_;
    std::uint64_t size_bytes_;
    double read_pj_;
    double write_pj_;
    double leak_pw_;
};

/// One slot family of a hybrid pool: up to `count` banks of `tech`.
struct PoolSlot {
    MemTechnology tech = MemTechnology::Sram;
    std::size_t count = 0;
};

/// A hybrid set of available banks with mixed technologies. The pool
/// constrains the cluster->bank assignment: an architecture with K banks
/// draws its technologies from the pool's slots, using at most
/// slot.count banks of each technology.
///
/// Spec grammar (parse()):
///   pool   := entry (',' entry)*
///   entry  := tech [ '=' count ]        -- count defaults to "no limit"
///   tech   := "sram" | "edram" | "sttmram" | "drowsy"
/// Examples: "sram" (homogeneous), "sram=2,sttmram=6" (2 fast + 6 dense).
/// An entry without a count contributes kUnbounded slots. Duplicate
/// technologies accumulate. Order is preserved (it is the deterministic
/// tie-break of the assignment solver).
class BankPool {
public:
    /// Effectively-unlimited slot count for entries without "=count".
    static constexpr std::size_t kUnbounded = 64;

    BankPool() = default;
    explicit BankPool(std::vector<PoolSlot> slots);

    /// Parse the --bank-pool spec grammar above. Throws memopt::Error on
    /// unknown technologies, zero counts, or an empty spec.
    static BankPool parse(const std::string& spec);

    /// Homogeneous pool: `count` banks of one technology.
    static BankPool homogeneous(MemTechnology tech, std::size_t count = kUnbounded);

    const std::vector<PoolSlot>& slots() const { return slots_; }
    std::size_t num_slots() const { return slots_.size(); }

    /// Total banks the pool can supply (sum of slot counts).
    std::size_t total_banks() const;

    /// Canonical spec string (round-trips through parse()).
    std::string to_string() const;

private:
    std::vector<PoolSlot> slots_;
};

}  // namespace memopt
