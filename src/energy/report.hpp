// Named energy breakdowns.
//
// Every evaluation path in the toolkit returns an EnergyBreakdown rather
// than a bare number, so reports and benches can show where the energy goes
// (bank access vs selector vs remap table vs leakage, etc.).
#pragma once

#include <iosfwd>
#include <string>
#include <utility>
#include <vector>

namespace memopt {

class JsonWriter;

/// An ordered collection of (component name, energy [pJ]) pairs.
///
/// Components keep insertion order for stable printing; adding to an
/// existing name accumulates.
class EnergyBreakdown {
public:
    EnergyBreakdown() = default;

    /// Add `pj` picojoules to component `name` (creates it if missing).
    void add(const std::string& name, double pj);

    /// Energy of one component; 0 if the component does not exist.
    double component(const std::string& name) const;

    /// Sum over all components [pJ].
    double total() const;

    const std::vector<std::pair<std::string, double>>& components() const { return parts_; }

    /// Render as an aligned two-column listing with a total line.
    void print(std::ostream& os, const std::string& title = "") const;

    /// Serialize as {"total_pj": x, "components": {name: pj, ...}}.
    void to_json(JsonWriter& w) const;

private:
    std::vector<std::pair<std::string, double>> parts_;
};

}  // namespace memopt
