#include "energy/sram_model.hpp"

#include <cmath>

#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/string_util.hpp"

namespace memopt {

namespace {

constexpr const char* kProtectionNames[] = {"none", "parity", "secded"};

// Calibration of a 0.18um-class embedded SRAM. Energies in picojoules,
// leakage in picowatts.
constexpr double kReadBasePj = 2.0;     // sense/control fixed cost per read
constexpr double kReadSqrtPj = 0.60;    // bitline+wordline cost, scaled by sqrt(words)
constexpr double kReadDecPj = 0.25;     // decoder cost per address bit
constexpr double kWriteFactor = 1.18;   // write energy = factor * read energy
constexpr double kLeakPwPerByte = 1.5;  // standby leakage per byte
constexpr double kEccXorPj = 0.004;     // one XOR term of an ECC encode/check tree

}  // namespace

const char* protection_name(ProtectionScheme scheme) {
    return enum_entry(kProtectionNames, scheme);
}

std::optional<ProtectionScheme> parse_protection(std::string_view name) {
    return parse_enum<ProtectionScheme>(kProtectionNames, name);
}

unsigned protection_check_bits(ProtectionScheme scheme, unsigned data_bits) {
    require(data_bits > 0, "protection_check_bits: zero data width");
    switch (scheme) {
        case ProtectionScheme::None:
            return 0;
        case ProtectionScheme::Parity:
            return 1;
        case ProtectionScheme::Secded: {
            // Smallest m with 2^m >= data_bits + m + 1, plus the overall
            // parity bit that upgrades Hamming SEC to SECDED.
            unsigned m = 1;
            while ((1ull << m) < data_bits + m + 1) ++m;
            return m + 1;
        }
    }
    MEMOPT_ASSERT_MSG(false, "unknown ProtectionScheme");
    return 0;
}

std::size_t protected_stored_bytes(std::size_t data_bytes, ProtectionScheme scheme) {
    if (scheme == ProtectionScheme::None || data_bytes == 0) return data_bytes;
    const std::size_t words = (data_bytes + 7) / 8;
    const std::size_t check_bits = words * protection_check_bits(scheme, 64);
    return data_bytes + (check_bits + 7) / 8;
}

double protection_access_energy(ProtectionScheme scheme, unsigned data_bits) {
    const unsigned check = protection_check_bits(scheme, data_bits);
    if (check == 0) return 0.0;
    // Every check bit is produced/verified by an XOR tree over roughly half
    // of the data word (plus the stored check bit itself).
    return static_cast<double>(check) * (data_bits / 2.0 + 1.0) * kEccXorPj;
}

SramEnergyModel::SramEnergyModel(std::uint64_t size_bytes, unsigned word_bits,
                                 ProtectionScheme protection)
    : size_bytes_(size_bytes), word_bits_(word_bits), protection_(protection) {
    require(is_pow2(size_bytes), "SramEnergyModel: size must be a power of two");
    require(size_bytes >= 16, "SramEnergyModel: size must be >= 16 bytes");
    require(word_bits == 8 || word_bits == 16 || word_bits == 32 || word_bits == 64 ||
                word_bits == 128,
            "SramEnergyModel: unsupported word width");

    const double words = static_cast<double>(size_bytes) / (word_bits / 8.0);
    const double addr_bits = std::log2(words);
    // Check-bit columns widen every physical row: the array terms (bitlines
    // switched, cells leaking) scale by the protected-word width; the
    // decoder term does not (the address space is unchanged).
    const double width_factor =
        1.0 + static_cast<double>(protection_check_bits(protection, word_bits)) /
                  static_cast<double>(word_bits);
    // Wider words move more bitlines per access; scale the array term
    // linearly with width relative to the 32-bit reference.
    read_pj_ = kReadBasePj + kReadDecPj * addr_bits +
               kReadSqrtPj * std::sqrt(words) * (static_cast<double>(word_bits) / 32.0) *
                   width_factor;
    write_pj_ = read_pj_ * kWriteFactor;
    leak_pw_ = kLeakPwPerByte * static_cast<double>(size_bytes) * width_factor;
}

double SramEnergyModel::leakage_energy(std::uint64_t cycles) const {
    // pW * ns = 1e-21 J = 1e-9 pJ.
    return leak_pw_ * static_cast<double>(cycles) * kCycleNs * 1e-9;
}

double bank_select_energy(std::size_t num_banks) {
    MEMOPT_ASSERT(num_banks >= 1);
    if (num_banks <= 1) return 0.0;
    const double sel_bits = std::ceil(std::log2(static_cast<double>(num_banks)));
    // Selector decode scales with select bits; output multiplexing and the
    // longer inter-bank wiring scale mildly with the bank count itself.
    return 0.9 * kReadDecPj * sel_bits + 0.15 * static_cast<double>(num_banks);
}

}  // namespace memopt
