#include "energy/tech_model.hpp"

#include <utility>

#include "support/assert.hpp"
#include "support/string_util.hpp"

namespace memopt {

namespace {

struct TechRow {
    const char* name;
    TechFactors factors;
};

// Default design points. SRAM is the all-ones reference; the others order
// the tradeoffs the way the heterogeneous-memory literature does:
//   * eDRAM: 1T1C cells move less bitline charge than 6T SRAM (cheaper
//     access at the same capacity) and leak less, but retention is dynamic
//     — the refresh sweep costs power whenever the bank is powered, and a
//     gated bank goes dark (no refresh, contents lost).
//   * STT-MRAM: reads sense a resistive cell (slightly above SRAM), writes
//     must torque the magnetic junction (several times a read), and the
//     cell is non-volatile — negligible standby leakage and a perfect,
//     cheap power gate.
//   * Drowsy SRAM: the sleepy bank as a first-class technology — full
//     access energy, full leakage while active, but a retentive standby
//     state that is cheap to enter and leave.
// The rows follow MemTechnology's enumerator order.
constexpr TechRow kTechs[] = {
    {"sram", {/*read_factor=*/1.0, /*write_factor=*/1.0, /*leak_factor=*/1.0,
              /*refresh_pw_per_byte=*/0.0,
              /*gate_leak_factor=*/0.03, /*gate_wake_pj=*/80.0}},
    {"edram", {/*read_factor=*/0.72, /*write_factor=*/0.78, /*leak_factor=*/0.30,
               /*refresh_pw_per_byte=*/0.55,
               /*gate_leak_factor=*/0.02, /*gate_wake_pj=*/60.0}},
    {"sttmram", {/*read_factor=*/1.15, /*write_factor=*/5.5, /*leak_factor=*/0.02,
                 /*refresh_pw_per_byte=*/0.0,
                 /*gate_leak_factor=*/0.0, /*gate_wake_pj=*/15.0}},
    {"drowsy", {/*read_factor=*/1.0, /*write_factor=*/1.0, /*leak_factor=*/1.0,
                /*refresh_pw_per_byte=*/0.0,
                /*gate_leak_factor=*/0.08, /*gate_wake_pj=*/40.0}},
};

}  // namespace

const char* technology_name(MemTechnology tech) { return enum_entry(kTechs, tech).name; }

std::optional<MemTechnology> parse_technology(std::string_view name) {
    return parse_enum<MemTechnology>(kTechs, name, &TechRow::name);
}

const TechFactors& technology_factors(MemTechnology tech) {
    return enum_entry(kTechs, tech).factors;
}

TechEnergyModel::TechEnergyModel(MemTechnology tech, std::uint64_t size_bytes)
    : tech_(tech), factors_(technology_factors(tech)), size_bytes_(size_bytes) {
    const SramEnergyModel base(size_bytes);
    // SRAM bypasses the factor multiplications entirely so an all-SRAM pool
    // reproduces the legacy SramEnergyModel doubles bit for bit (x * 1.0 is
    // identity in IEEE, but the contract should not hinge on that).
    if (tech == MemTechnology::Sram || tech == MemTechnology::DrowsySram) {
        read_pj_ = base.read_energy();
        write_pj_ = base.write_energy();
        leak_pw_ = base.leakage_pw();
    } else {
        read_pj_ = base.read_energy() * factors_.read_factor;
        write_pj_ = base.read_energy() * factors_.write_factor;
        leak_pw_ = base.leakage_pw() * factors_.leak_factor;
    }
}

double TechEnergyModel::leakage_energy(std::uint64_t cycles) const {
    // The expression of SramEnergyModel::leakage_energy, so SRAM and drowsy
    // banks (whose leak_pw_ is the SRAM value) leak bit-identically to it.
    return leak_pw_ * static_cast<double>(cycles) * kCycleNs * 1e-9;
}

double TechEnergyModel::refresh_energy(std::uint64_t cycles) const {
    if (factors_.refresh_pw_per_byte <= 0.0) return 0.0;
    const double refresh_pw = factors_.refresh_pw_per_byte * static_cast<double>(size_bytes_);
    return refresh_pw * static_cast<double>(cycles) * kCycleNs * 1e-9;
}

double TechEnergyModel::gated_leakage_energy(std::uint64_t cycles) const {
    return leakage_energy(cycles) * factors_.gate_leak_factor;
}

BankPool::BankPool(std::vector<PoolSlot> slots) : slots_(std::move(slots)) {
    for (const PoolSlot& slot : slots_)
        require(slot.count > 0, "BankPool: slot count must be positive");
}

BankPool BankPool::parse(const std::string& spec) {
    require(!spec.empty(), "BankPool: empty spec");
    std::vector<PoolSlot> slots;
    for (std::string_view raw : split(spec, ',')) {
        const std::string entry{trim(raw)};
        require(!entry.empty(), "BankPool: empty entry in spec '" + spec + "'");
        const std::size_t eq = entry.find('=');
        PoolSlot slot;
        const std::string_view name = trim(std::string_view{entry}.substr(0, eq));
        const auto tech = parse_technology(name);
        if (!tech)
            throw Error("unknown memory technology '" + std::string{name} +
                        "' (expected sram, edram, sttmram or drowsy)");
        slot.tech = *tech;
        if (eq == std::string::npos) {
            slot.count = kUnbounded;
        } else {
            const auto count = parse_int(std::string_view{entry}.substr(eq + 1));
            require(count.has_value() && *count > 0,
                    "BankPool: '" + entry + "' needs a positive count after '='");
            slot.count = static_cast<std::size_t>(*count);
        }
        slots.push_back(slot);
    }
    return BankPool(std::move(slots));
}

BankPool BankPool::homogeneous(MemTechnology tech, std::size_t count) {
    return BankPool({PoolSlot{tech, count}});
}

std::size_t BankPool::total_banks() const {
    std::size_t total = 0;
    for (const PoolSlot& slot : slots_) total += slot.count;
    return total;
}

std::string BankPool::to_string() const {
    std::string out;
    for (const PoolSlot& slot : slots_) {
        if (!out.empty()) out += ',';
        out += technology_name(slot.tech);
        if (slot.count != kUnbounded) out += '=' + std::to_string(slot.count);
    }
    return out;
}

}  // namespace memopt
