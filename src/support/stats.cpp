#include "support/stats.hpp"

#include <algorithm>

#include "support/assert.hpp"

namespace memopt {

void Accumulator::add(double x) {
    if (n_ == 0) {
        min_ = max_ = x;
    } else {
        min_ = std::min(min_, x);
        max_ = std::max(max_, x);
    }
    ++n_;
    sum_ += x;
    mean_ += (x - mean_) / static_cast<double>(n_);
}

double Accumulator::mean() const { return n_ == 0 ? 0.0 : mean_; }

double Accumulator::min() const {
    MEMOPT_ASSERT(n_ > 0);
    return min_;
}

double Accumulator::max() const {
    MEMOPT_ASSERT(n_ > 0);
    return max_;
}

double mean(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    Accumulator acc;
    for (double x : xs) acc.add(x);
    return acc.mean();
}

double percentile(std::span<const double> xs, double p) {
    require(!xs.empty(), "percentile of an empty sample set");
    require(p >= 0.0 && p <= 100.0, "percentile p must be in [0,100]");
    std::vector<double> sorted(xs.begin(), xs.end());
    std::sort(sorted.begin(), sorted.end());
    const double rank = p / 100.0 * static_cast<double>(sorted.size() - 1);
    const auto lo = static_cast<std::size_t>(rank);
    const std::size_t hi = std::min(lo + 1, sorted.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return sorted[lo] * (1.0 - frac) + sorted[hi] * frac;
}

double percent_savings(double base, double opt) {
    require(base != 0.0, "percent_savings with zero baseline");
    return 100.0 * (base - opt) / base;
}

}  // namespace memopt
