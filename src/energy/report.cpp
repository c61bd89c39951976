#include "energy/report.hpp"

#include <algorithm>
#include <ostream>

#include "support/json.hpp"
#include "support/string_util.hpp"

namespace memopt {

void EnergyBreakdown::add(const std::string& name, double pj) {
    auto it = std::find_if(parts_.begin(), parts_.end(),
                           [&](const auto& p) { return p.first == name; });
    if (it != parts_.end()) {
        it->second += pj;
    } else {
        parts_.emplace_back(name, pj);
    }
}

double EnergyBreakdown::component(const std::string& name) const {
    auto it = std::find_if(parts_.begin(), parts_.end(),
                           [&](const auto& p) { return p.first == name; });
    return it == parts_.end() ? 0.0 : it->second;
}

double EnergyBreakdown::total() const {
    double sum = 0.0;
    for (const auto& [name, pj] : parts_) sum += pj;
    return sum;
}

void EnergyBreakdown::print(std::ostream& os, const std::string& title) const {
    if (!title.empty()) os << title << "\n";
    std::size_t width = 5;
    for (const auto& [name, pj] : parts_) width = std::max(width, name.size());
    for (const auto& [name, pj] : parts_) {
        os << "  " << name << std::string(width - name.size(), ' ') << " : "
           << format_energy_pj(pj) << "\n";
    }
    os << "  " << "total" << std::string(width - 5, ' ') << " : "
       << format_energy_pj(total()) << "\n";
}

void EnergyBreakdown::to_json(JsonWriter& w) const {
    w.begin_object();
    w.member("total_pj", total());
    w.key("components").begin_object();
    for (const auto& [name, pj] : parts_) w.member(name, pj);
    w.end_object();
    w.end_object();
}

}  // namespace memopt
