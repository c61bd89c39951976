// Shared driver for the E4/E5 compression tables (same experiment on two
// platform models).
#pragma once

#include <string>

#include "cache/platform.hpp"

namespace memopt::bench {

/// Run the 1B-2 per-benchmark compression table on one platform and print
/// it. `report_name` is the MEMOPT_JSON_DIR file stem for the structured
/// BenchReport export; `paper_range` is the savings band claimed by the
/// paper for this platform; returns true when the measured media-kernel
/// band overlaps it.
bool run_compression_table(const PlatformModel& platform, const std::string& experiment_id,
                           const std::string& report_name, const std::string& paper_range,
                           double paper_lo, double paper_hi);

}  // namespace memopt::bench
