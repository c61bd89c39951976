#include "energy/tech_model.hpp"

#include <utility>

#include "support/assert.hpp"
#include "support/string_util.hpp"

namespace memopt {

namespace {

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
const TechFactors kSramFactors{
    /*read_factor=*/1.0, /*write_factor=*/1.0, /*leak_factor=*/1.0,
    /*refresh_pw_per_byte=*/0.0,
    /*gate_leak_factor=*/0.03, /*gate_wake_pj=*/80.0, /*retentive=*/false,
    /*read_latency_cycles=*/1, /*write_latency_cycles=*/1};

const TechFactors kEdramFactors{
    /*read_factor=*/0.72, /*write_factor=*/0.78, /*leak_factor=*/0.30,
    /*refresh_pw_per_byte=*/0.55,
    /*gate_leak_factor=*/0.02, /*gate_wake_pj=*/60.0, /*retentive=*/false,
    /*read_latency_cycles=*/2, /*write_latency_cycles=*/2};

const TechFactors kSttMramFactors{
    /*read_factor=*/1.15, /*write_factor=*/5.5, /*leak_factor=*/0.02,
    /*refresh_pw_per_byte=*/0.0,
    /*gate_leak_factor=*/0.0, /*gate_wake_pj=*/15.0, /*retentive=*/true,
    /*read_latency_cycles=*/2, /*write_latency_cycles=*/10};

const TechFactors kDrowsyFactors{
    /*read_factor=*/1.0, /*write_factor=*/1.0, /*leak_factor=*/1.0,
    /*refresh_pw_per_byte=*/0.0,
    /*gate_leak_factor=*/0.08, /*gate_wake_pj=*/40.0, /*retentive=*/true,
    /*read_latency_cycles=*/1, /*write_latency_cycles=*/1};

}  // namespace

const char* technology_name(MemTechnology tech) {
    switch (tech) {
        case MemTechnology::Sram: return "sram";
        case MemTechnology::Edram: return "edram";
        case MemTechnology::SttMram: return "sttmram";
        case MemTechnology::DrowsySram: return "drowsy";
    }
    MEMOPT_ASSERT_MSG(false, "unknown MemTechnology");
    return "?";
}

MemTechnology parse_technology(const std::string& name) {
    if (name == "sram") return MemTechnology::Sram;
    if (name == "edram") return MemTechnology::Edram;
    if (name == "sttmram") return MemTechnology::SttMram;
    if (name == "drowsy") return MemTechnology::DrowsySram;
    throw Error("unknown memory technology '" + name +
                "' (expected sram, edram, sttmram or drowsy)");
}

const TechFactors& technology_factors(MemTechnology tech) {
    switch (tech) {
        case MemTechnology::Sram: return kSramFactors;
        case MemTechnology::Edram: return kEdramFactors;
        case MemTechnology::SttMram: return kSttMramFactors;
        case MemTechnology::DrowsySram: return kDrowsyFactors;
    }
    MEMOPT_ASSERT_MSG(false, "unknown MemTechnology");
    return kSramFactors;
}

TechEnergyModel::TechEnergyModel(MemTechnology tech, std::uint64_t size_bytes,
                                 unsigned word_bits, const SramTechnology& base,
                                 ProtectionScheme protection)
    : TechEnergyModel(tech, technology_factors(tech), size_bytes, word_bits, base,
                      protection) {}

TechEnergyModel::TechEnergyModel(MemTechnology tech, const TechFactors& factors,
                                 std::uint64_t size_bytes, unsigned word_bits,
                                 const SramTechnology& base, ProtectionScheme protection)
    : tech_(tech), factors_(factors), base_(size_bytes, word_bits, base, protection) {
    // SRAM bypasses the factor multiplications entirely so an all-SRAM pool
    // reproduces the legacy SramEnergyModel doubles bit for bit (x * 1.0 is
    // identity in IEEE, but the contract should not hinge on that).
    if (tech == MemTechnology::Sram || tech == MemTechnology::DrowsySram) {
        read_pj_ = base_.read_energy();
        write_pj_ = base_.write_energy();
        leak_pw_ = base_.leakage_pw();
    } else {
        read_pj_ = base_.read_energy() * factors_.read_factor;
        write_pj_ = base_.read_energy() * factors_.write_factor;
        leak_pw_ = base_.leakage_pw() * factors_.leak_factor;
    }
}

double TechEnergyModel::leakage_energy(std::uint64_t cycles, double cycle_ns) const {
    if (tech_ == MemTechnology::Sram || tech_ == MemTechnology::DrowsySram)
        return base_.leakage_energy(cycles, cycle_ns);
    require(cycle_ns >= 0.0, "leakage_energy: negative cycle time");
    // pW * ns = 1e-9 pJ (same unit bridge as SramEnergyModel).
    return leak_pw_ * static_cast<double>(cycles) * cycle_ns * 1e-9;
}

double TechEnergyModel::refresh_energy(std::uint64_t cycles, double cycle_ns) const {
    if (factors_.refresh_pw_per_byte <= 0.0) return 0.0;
    require(cycle_ns >= 0.0, "refresh_energy: negative cycle time");
    const double refresh_pw =
        factors_.refresh_pw_per_byte * static_cast<double>(base_.size_bytes());
    return refresh_pw * static_cast<double>(cycles) * cycle_ns * 1e-9;
}

double TechEnergyModel::gated_leakage_energy(std::uint64_t cycles, double cycle_ns) const {
    return leakage_energy(cycles, cycle_ns) * factors_.gate_leak_factor;
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
        if (eq == std::string::npos) {
            slot.tech = parse_technology(entry);
            slot.count = kUnbounded;
        } else {
            slot.tech = parse_technology(std::string{trim(std::string_view{entry}.substr(0, eq))});
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

bool BankPool::is_homogeneous() const {
    for (const PoolSlot& slot : slots_)
        if (slot.tech != slots_.front().tech) return false;
    return !slots_.empty();
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
