#include "support/stats.hpp"

#include <algorithm>
#include <cmath>

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
    const double delta = x - mean_;
    mean_ += delta / static_cast<double>(n_);
    m2_ += delta * (x - mean_);
}

double Accumulator::mean() const { return n_ == 0 ? 0.0 : mean_; }

double Accumulator::variance() const {
    return n_ < 2 ? 0.0 : m2_ / static_cast<double>(n_ - 1);
}

double Accumulator::stddev() const { return std::sqrt(variance()); }

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

double stddev(std::span<const double> xs) {
    Accumulator acc;
    for (double x : xs) acc.add(x);
    return acc.stddev();
}

double geomean(std::span<const double> xs) {
    if (xs.empty()) return 0.0;
    double log_sum = 0.0;
    for (double x : xs) {
        require(x > 0.0, "geomean requires strictly positive samples");
        log_sum += std::log(x);
    }
    return std::exp(log_sum / static_cast<double>(xs.size()));
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
