#include "cache/memsys.hpp"

#include <algorithm>
#include <optional>
#include <vector>

#include "energy/sram_model.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/json.hpp"
#include "support/string_util.hpp"
#include "trace/source.hpp"

namespace memopt {

namespace {
constexpr double kCompressPjPerWord = 1.2;    // HW compression unit, per 32-bit word
constexpr double kDecompressPjPerWord = 0.9;  // HW decompression unit, per word
}  // namespace

CompressedMemorySim::CompressedMemorySim(const CompressedMemConfig& config,
                                         const LineCodec* codec)
    : config_(config), codec_(codec) {}

CompressedMemReport CompressedMemorySim::run(TraceSource& source,
                                             std::span<const std::uint8_t> image,
                                             std::uint64_t image_base) {
    require(source.size() > 0, "CompressedMemorySim: empty trace");

    const unsigned line_bytes = config_.cache.line_bytes;
    // The shadow spans the power-of-two ceiling of the highest byte the run
    // touches, in the trace or in the image; that ceiling must fit in 64 bits.
    std::uint64_t top = source.summary().max_addr;
    if (!image.empty()) top = std::max(top, image_base + (image.size() - 1));
    if (top >> 63 != 0)
        throw Error(format("CompressedMemorySim: highest address 0x%llx has no power-of-two "
                           "span in 64 bits",
                           static_cast<unsigned long long>(top)));
    const std::uint64_t span =
        std::max(ceil_pow2(top + 1), static_cast<std::uint64_t>(line_bytes));

    // Shadow memory: the current value of every byte. It reflects the
    // program's view (cache + memory combined); at eviction time the victim
    // line's bytes are exactly the values the cache would write back.
    std::vector<std::uint8_t> shadow(span, 0);
    if (!image.empty())
        std::copy(image.begin(), image.end(),
                  shadow.begin() + static_cast<std::ptrdiff_t>(image_base));

    CacheModel cache(config_.cache);  // validates the line size first
    const std::uint64_t lines = span / line_bytes;

    // Stored size of each line of main memory, indexed by line number: set
    // while the line is stored in compressed form, empty while raw.
    std::vector<std::optional<std::uint32_t>> stored_compressed(lines);
    // Stored blobs for the verify_roundtrip invariant, indexed the same way.
    std::vector<std::vector<std::uint8_t>> stored_blobs(config_.verify_roundtrip ? lines : 0);
    const SramEnergyModel cache_sram(config_.cache.size_bytes);
    const DramEnergyModel dram(config_.dram);
    const std::size_t words_per_line = line_bytes / 4;

    CompressedMemReport report;
    double cache_pj = 0.0;
    double dram_pj = 0.0;
    double codec_pj = 0.0;

    auto line_span = [&](std::uint64_t line_addr) {
        return std::span<const std::uint8_t>(shadow).subspan(line_addr, line_bytes);
    };

    auto do_writeback = [&](std::uint64_t line_addr) {
        ++report.writeback_lines;
        report.raw_traffic_bytes += line_bytes;
        // Reading the victim line out of the cache array.
        cache_pj += cache_sram.read_energy() * static_cast<double>(words_per_line);
        std::uint64_t burst_bytes = line_bytes;
        if (codec_ != nullptr) {
            const BitWriter coded = codec_->encode(line_span(line_addr));
            const std::size_t blob_bytes = (coded.bit_count() + 7) / 8;
            codec_pj += kCompressPjPerWord * static_cast<double>(words_per_line);
            if (blob_bytes < line_bytes) {
                burst_bytes = blob_bytes;
                stored_compressed[line_addr / line_bytes] = static_cast<std::uint32_t>(blob_bytes);
                if (config_.verify_roundtrip) stored_blobs[line_addr / line_bytes] = coded.bytes();
            } else {
                // Store raw when compression does not pay.
                stored_compressed[line_addr / line_bytes].reset();
            }
        }
        report.actual_traffic_bytes += burst_bytes;
        dram_pj += dram.burst_energy(burst_bytes);
    };

    auto do_fill = [&](std::uint64_t line_addr) {
        ++report.fill_lines;
        report.raw_traffic_bytes += line_bytes;
        std::uint64_t burst_bytes = line_bytes;
        if (codec_ != nullptr) {
            const std::optional<std::uint32_t>& stored = stored_compressed[line_addr / line_bytes];
            if (stored) {
                burst_bytes = *stored;
                codec_pj += kDecompressPjPerWord * static_cast<double>(words_per_line);
                if (config_.verify_roundtrip) {
                    // Between eviction and this refill nothing wrote the
                    // line (writes allocate first), so the shadow still
                    // holds the bytes that were compressed: decode and
                    // compare, end to end.
                    const std::vector<std::uint8_t> decoded =
                        codec_->decode(stored_blobs[line_addr / line_bytes], line_bytes);
                    const auto expected = line_span(line_addr);
                    require(std::equal(decoded.begin(), decoded.end(), expected.begin()),
                            "CompressedMemorySim: stored line failed the round-trip check");
                }
            }
        }
        report.actual_traffic_bytes += burst_bytes;
        dram_pj += dram.burst_energy(burst_bytes);
        // Installing the line into the cache array.
        cache_pj += cache_sram.write_energy() * static_cast<double>(words_per_line);
    };

    // Chunked columnar replay over the four columns this simulation reads.
    // The cache and shadow state carry across chunk boundaries untouched.
    source.reset();
    TraceChunk chunk;
    while (source.next(chunk)) {
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            const std::uint64_t addr = chunk.addrs[i];
            const AccessKind kind = chunk.kinds[i];
            require(addr <= span && chunk.sizes[i] <= span - addr,
                    "CompressedMemorySim: access outside span");
            const CacheAccessResult r = cache.access(addr, kind);
            // The CPU-side cache access itself.
            cache_pj += kind == AccessKind::Read ? cache_sram.read_energy()
                                                 : cache_sram.write_energy();
            if (r.writeback_line) do_writeback(*r.writeback_line);
            if (r.fill_line) do_fill(*r.fill_line);
            // Update the shadow after the geometric simulation.
            if (kind == AccessKind::Write) {
                for (unsigned b = 0; b < chunk.sizes[i]; ++b)
                    shadow[addr + b] = static_cast<std::uint8_t>(chunk.values[i] >> (8 * b));
            }
        }
    }

    // Flush so that all dirty data is accounted in both configurations.
    for (std::uint64_t line : cache.flush()) do_writeback(line);

    report.cache_stats = cache.stats();
    report.energy.add("cache", cache_pj);
    report.energy.add("main_memory", dram_pj);
    if (codec_ != nullptr) report.energy.add("codec", codec_pj);
    return report;
}

void to_json(JsonWriter& w, const CompressedMemReport& report) {
    w.begin_object();
    w.key("cache");
    to_json(w, report.cache_stats);
    w.member("writeback_lines", report.writeback_lines);
    w.member("fill_lines", report.fill_lines);
    w.member("raw_traffic_bytes", report.raw_traffic_bytes);
    w.member("actual_traffic_bytes", report.actual_traffic_bytes);
    w.member("traffic_ratio", report.traffic_ratio());
    // Frozen memopt.report.v1 keys. Faults in stored lines are modelled by
    // the fault campaigns (fault/campaign), never by this replay.
    w.member("faults_injected", 0u);
    w.member("corrected_faults", 0u);
    w.member("degraded_refills", 0u);
    w.member("silent_refills", 0u);
    w.key("energy");
    report.energy.to_json(w);
    w.end_object();
}

}  // namespace memopt
