// Compressed-memory system simulation — the 1B-2 experiment engine.
//
// Replays a value-carrying data trace through a write-back D-cache backed
// by main memory. With a codec installed, every dirty line is compressed
// before its write-back burst and lines stored compressed are refetched at
// their compressed size (and decompressed) on refill — exactly the
// Lx-ST200 scheme of the paper. Without a codec the same engine produces
// the uncompressed baseline, so savings compare identical machinery.
#pragma once

#include <cstdint>
#include <span>

#include "cache/cache.hpp"
#include "compress/codec.hpp"
#include "energy/dram_model.hpp"
#include "energy/report.hpp"

namespace memopt {

class JsonWriter;
class TraceSource;

/// Configuration of the compressed memory system.
struct CompressedMemConfig {
    CacheConfig cache;                   ///< D-cache geometry (write-back)
    DramTechnology dram;                 ///< off-chip path technology
    /// When set, the simulation keeps every compressed blob and, on each
    /// refill of a compressed line, decodes it and checks the bytes against
    /// the shadow memory — an end-to-end losslessness invariant across the
    /// full system (throws memopt::Error on mismatch). Used by tests.
    bool verify_roundtrip = false;
};

/// Result of one simulation run.
struct CompressedMemReport {
    CacheStats cache_stats;
    std::uint64_t writeback_lines = 0;      ///< lines written to main memory
    std::uint64_t fill_lines = 0;           ///< lines fetched from main memory
    std::uint64_t raw_traffic_bytes = 0;    ///< bytes if all bursts were raw
    std::uint64_t actual_traffic_bytes = 0; ///< bytes actually moved
    EnergyBreakdown energy;  ///< "cache", "main_memory", "codec"

    /// Actual/raw traffic; 1.0 when nothing was compressible (or no codec).
    double traffic_ratio() const {
        return raw_traffic_bytes == 0
                   ? 1.0
                   : static_cast<double>(actual_traffic_bytes) /
                         static_cast<double>(raw_traffic_bytes);
    }
};

/// Serialize one run: cache stats, line traffic, traffic ratio, energy.
void to_json(JsonWriter& w, const CompressedMemReport& report);

/// The simulation engine.
class CompressedMemorySim {
public:
    /// `codec` may be null: then the run is the uncompressed baseline.
    /// The codec must outlive the simulation.
    CompressedMemorySim(const CompressedMemConfig& config, const LineCodec* codec);

    /// Replay `source` (value-carrying, e.g. the AR32 ISS data trace in a
    /// MaterializedSource) chunk by chunk. `image` is the initial memory
    /// content at byte address `image_base` (addresses outside it start as
    /// zero). Dirty lines are flushed at the end so both configurations
    /// account for all traffic. The replay is sequential (cache + shadow
    /// memory are stateful), so chunking changes nothing. Memory is
    /// O(chunk + address span) — the shadow memory still covers the span,
    /// which the source's summary provides without materializing.
    CompressedMemReport run(TraceSource& source, std::span<const std::uint8_t> image,
                            std::uint64_t image_base);

private:
    CompressedMemConfig config_;
    const LineCodec* codec_;
};

}  // namespace memopt
