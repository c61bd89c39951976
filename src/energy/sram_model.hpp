// Analytical on-chip SRAM energy model ("CACTI-lite").
//
// The DATE'03 1B papers used proprietary ST 0.18um memory-cut datasheets to
// map bank size to energy-per-access. Those datasheets are not available, so
// this model substitutes an analytical formulation that preserves the single
// property the optimizations depend on: energy per access grows monotonically
// and super-logarithmically with capacity (decoder ~ log2(words), bitline /
// wordline ~ sqrt(words) for a square array organization). The constants
// next to the formula in sram_model.cpp are calibrated so that a 1 KiB cut
// reads at ~12 pJ and a 64 KiB cut at ~79 pJ, in line with published
// 0.18um-era figures.
#pragma once

#include <cstddef>
#include <cstdint>
#include <optional>
#include <string_view>

namespace memopt {

/// Cycle time of the modeled core [ns] (a 100 MHz-class embedded core):
/// leakage and refresh energies accrue over cycles of this length.
inline constexpr double kCycleNs = 10.0;

/// Error-protection scheme of a memory array or stored line. The energy
/// techniques reproduced here (drowsy banks, compressed write-back) trade
/// reliability margin for energy; protection buys that margin back at a
/// per-access and per-bit cost that studies must account for.
enum class ProtectionScheme {
    None,    ///< unprotected storage
    Parity,  ///< 1 parity bit per word: detects odd-weight flips
    Secded,  ///< Hamming SECDED: corrects 1-bit, detects 2-bit flips per word
};

/// Display name ("none", "parity", "secded").
const char* protection_name(ProtectionScheme scheme);

/// The scheme a display name names, or nullopt.
std::optional<ProtectionScheme> parse_protection(std::string_view name);

/// Check bits stored per `data_bits`-wide word under `scheme`
/// (Parity: 1; SECDED: Hamming bits + overall parity, e.g. 8 for 64).
unsigned protection_check_bits(ProtectionScheme scheme, unsigned data_bits);

/// Bytes a `data_bytes`-long buffer occupies in storage under `scheme`
/// (check bits of every started 64-bit word, rounded up to whole bytes).
std::size_t protected_stored_bytes(std::size_t data_bytes, ProtectionScheme scheme);

/// Per-access energy of the encode/check logic (XOR trees) [pJ]. The
/// *storage* overhead of the check bits is modeled separately by
/// SramEnergyModel's protection-aware constructor; call sites charge this
/// logic term explicitly (typically as an "ecc" breakdown component) so
/// reports can isolate the cost of protection.
double protection_access_energy(ProtectionScheme scheme, unsigned data_bits);

/// Energy model for a single SRAM cut of a given capacity.
///
/// Value type: cheap to copy; all queries are pure.
class SramEnergyModel {
public:
    /// `size_bytes` must be a power of two and >= 16 bytes.
    /// `word_bits` is the I/O width (default 32). With a protection scheme
    /// the array carries check-bit columns alongside every word: bitline
    /// and leakage terms scale by (data+check)/data, modeling the wider
    /// physical row. The encode/check *logic* energy is not folded in —
    /// see protection_access_energy().
    explicit SramEnergyModel(std::uint64_t size_bytes, unsigned word_bits = 32,
                             ProtectionScheme protection = ProtectionScheme::None);

    std::uint64_t size_bytes() const { return size_bytes_; }
    unsigned word_bits() const { return word_bits_; }
    ProtectionScheme protection() const { return protection_; }

    /// Energy of one read access [pJ].
    double read_energy() const { return read_pj_; }

    /// Energy of one write access [pJ].
    double write_energy() const { return write_pj_; }

    /// Standby leakage power [pW].
    double leakage_pw() const { return leak_pw_; }

    /// Leakage energy [pJ] over `cycles` cycles of kCycleNs.
    double leakage_energy(std::uint64_t cycles) const;

private:
    std::uint64_t size_bytes_;
    unsigned word_bits_;
    ProtectionScheme protection_;
    double read_pj_;
    double write_pj_;
    double leak_pw_;
};

/// Per-access overhead of the bank-selection logic (decoder + output mux +
/// inter-bank wiring) of a multi-bank memory with `num_banks` banks [pJ].
/// Grows with log2 of the bank count; 0 for a monolithic memory. This is the
/// term that makes unbounded banking unprofitable.
double bank_select_energy(std::size_t num_banks);

}  // namespace memopt
