// Small descriptive-statistics helpers used by reports and benches.
#pragma once

#include <cstddef>
#include <span>
#include <vector>

namespace memopt {

/// Streaming accumulator for count/mean/min/max (Welford's running mean).
class Accumulator {
public:
    /// Add one sample.
    void add(double x);

    std::size_t count() const { return n_; }
    double sum() const { return sum_; }
    double mean() const;
    double min() const;
    double max() const;

private:
    std::size_t n_ = 0;
    double mean_ = 0.0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

/// Arithmetic mean; 0 for an empty span.
double mean(std::span<const double> xs);

/// Linear-interpolated percentile, p in [0,100]; requires a non-empty span.
double percentile(std::span<const double> xs, double p);

/// Savings of `opt` versus `base` in percent: 100 * (base - opt) / base.
double percent_savings(double base, double opt);

}  // namespace memopt
