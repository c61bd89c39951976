// Word-level error protection: parity and Hamming SECDED codewords.
//
// The injectable storage unit of the fault subsystem is a 64-bit word plus
// its check bits. secded_* implement the classic (72,64) extended Hamming
// code: data bits occupy the non-power-of-two positions of a 1-based
// codeword, each check bit p_i covers the positions with bit i set, and an
// overall parity bit upgrades single-error correction to double-error
// detection. ProtectedBuffer wraps an arbitrary byte buffer (a raw cache
// line or a compressed blob) as a sequence of protected 64-bit words and
// exposes the *stored* bit space — data and check bits alike — to the
// fault injector, so campaigns flip exactly the bits real hardware stores.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "energy/sram_model.hpp"

namespace memopt {

/// Check byte (8 bits: 7 Hamming + overall parity) for a 64-bit data word.
std::uint8_t secded_encode(std::uint64_t data);

/// Outcome of checking one protected word.
enum class CheckOutcome {
    Clean,           ///< no error observed
    Corrected,       ///< single-bit error located and repaired
    Detected,        ///< uncorrectable (double-bit) error flagged
};

/// Check `data` against `check`; on a single-bit error both are repaired in
/// place. Returns the outcome (>=3-bit flips may alias to any outcome, as
/// in real SECDED hardware).
CheckOutcome secded_check(std::uint64_t& data, std::uint8_t& check);

/// Even parity bit of a 64-bit word.
std::uint8_t parity_encode(std::uint64_t data);

/// A byte buffer stored as protected 64-bit words. The buffer is padded
/// with zero bytes to a whole number of words; the padding is genuinely
/// stored (and therefore injectable), exactly as a hardware row would be.
class ProtectedBuffer {
public:
    ProtectedBuffer(std::span<const std::uint8_t> bytes, ProtectionScheme scheme);

    /// Stored bits: data (padded) plus one check unit per word.
    std::size_t total_bits() const;

    /// Flip stored bit `index` (0-based over total_bits(): all data bits of
    /// word 0, its check bits, then word 1, ...).
    void flip_bit(std::size_t index);

    /// Run the checker over every word: SECDED corrects/repairs single-bit
    /// words and flags double-bit words; parity flags odd-weight words;
    /// None observes nothing.
    struct ScrubResult {
        std::uint64_t corrected_words = 0;  ///< words repaired in place
        std::uint64_t detected_words = 0;   ///< words flagged uncorrectable
    };
    ScrubResult scrub();

    /// Current data bytes (truncated back to the original length).
    std::vector<std::uint8_t> bytes() const;

    ProtectionScheme scheme() const { return scheme_; }

private:
    ProtectionScheme scheme_;
    std::size_t data_bytes_;
    unsigned check_bits_per_word_;
    std::vector<std::uint64_t> words_;
    std::vector<std::uint8_t> checks_;  ///< one check unit per word (low bits used)
};

}  // namespace memopt
