// Block-structured streaming trace container (".mtsc") and its reader.
//
// The toolkit's binary trace format. Next to the diffable text format
// (trace/io.hpp), the ".mtsc" container stores a trace as a sequence of SoA
// *blocks* so that a reader can
//  * memory-map the file and hand out zero-copy column spans per block
//    (MmapBinarySource — the out-of-core replay path), and
//  * verify integrity per block (checksum + structural validation) instead
//    of trusting the whole file.
//
// On-disk layout (fixed little-endian; the zero-copy reader additionally
// requires a little-endian host):
//
//   header (64 bytes):
//     "MTSC" magic | u32 version | u64 count | u32 chunk_accesses |
//     u32 block_count | u32 flags (bit0 = compressed) | u32 reserved |
//     u64 min_addr | u64 max_addr | u64 reads | u64 writes
//   block offset table: block_count x u64 absolute file offsets
//   blocks, each 8-byte aligned:
//     "MTSB" magic | u32 count | u64 payload_bytes | u64 checksum (over
//     the stored payload, below) | payload | zero padding to 8 bytes
//
// An uncompressed payload is the raw column image
//   addrs[count*8] cycles[count*8] values[count*4] sizes[count] kinds[count]
// whose columns are all naturally aligned relative to the 8-aligned payload
// start — that is what makes the mmap spans zero-copy. A compressed payload
// (flags bit0) is the same image cut into 4 KiB lines, each stored as the
// smallest of {raw, diff codec, zero-run codec}: the in-tree cache-line
// codecs self-host the container's compression. The header carries the
// whole-trace summary, so opening a container never needs a summary pass.
//
// Block checksum (version 2). The payload is read as 8-byte little-endian
// words in 32-byte stripes; word j of every stripe feeds lane j of four:
//   lane = rotl(lane + word * P2, 31) * P1,   lanes seeded {P1+P2, P2, 0, -P1}
// A trailing partial stripe is zero-padded and absorbed the same way. Then
//   h = rotl(l0,1) + rotl(l1,7) + rotl(l2,12) + rotl(l3,18) + payload_bytes
//   h ^= h >> 33; h *= P2; h ^= h >> 29; h *= P3; h ^= h >> 32
// with P1/P2/P3 the xxHash64 primes. The round and the combine are
// bijections of any one lane, so every change confined to one word (every
// single-bit flip) changes the checksum; the four lanes are independent
// dependency chains, so the checksum keeps up with memory. Version 1
// containers (byte-serial FNV-1a seals) are not read: opening one raises
// memopt::Error naming the version; rewrite the trace with
// `memopt_cli trace`.
//
// The reader verifies each block once, on first delivery. For an
// uncompressed block that is ONE pass: the sweep that computes the
// checksum also screens every record (size in {1,2,4,8}, kind 0/1,
// [addr, addr+size-1] inside the header's [min_addr, max_addr]) tile by
// tile, and an exact per-record check runs only when the screen flags the
// block. A compressed block's checksum covers its stored bytes; its
// records are screened after decoding. Measured first pass over a freshly
// mapped 10^7-access (220 MB) container: 5.5-7.3 ns per access (Release,
// GCC 12.2, 4-vCPU x86-64), against 3.2-3.3 ns per access to merely sum
// every word of the same mapping.
//
// All header/block fields are validated against the file size BEFORE any
// allocation they would size: a corrupt count or block table fails with a
// diagnostic, not in the allocator.
#pragma once

#include <cstdint>
#include <string>
#include <vector>

#include "trace/source.hpp"

namespace memopt {

/// Hard cap on accesses per block: bounds every count-driven allocation a
/// (possibly corrupt) header can request. 16Mi accesses/block is far above
/// any useful chunking.
inline constexpr std::size_t kMaxStreamChunkAccesses = std::size_t{1} << 24;

/// Options for write_trace_stream().
struct StreamWriteOptions {
    std::size_t chunk_accesses = kDefaultTraceChunk;  ///< accesses per block
    bool compress = false;  ///< block-compress payloads (diff / zero-run)
};

/// Stream `source` into a ".mtsc" container at `path` (O(chunk) memory).
/// Returns the whole-trace summary that was written into the header.
/// Throws memopt::Error on I/O failure or if the source delivers a
/// different number of accesses than its size() promised.
TraceSummary write_trace_stream(const std::string& path, TraceSource& source,
                                const StreamWriteOptions& opts = {});

/// The ".mtsc" block checksum of `n` bytes at `data` (see the layout
/// comment above). Exposed so tests can reseal crafted payloads.
std::uint64_t mtsc_block_checksum(const std::uint8_t* data, std::size_t n);

/// Memory-mapped reader for the ".mtsc" container. Uncompressed containers
/// deliver zero-copy chunks straight out of the mapping (stable for the
/// source's lifetime); compressed containers decode each block into an
/// owned buffer (valid until the next next()/reset()). Each block is
/// structurally validated, checksum-verified, and content-validated
/// (access sizes, kinds, and address ranges against the header summary)
/// before its first delivery, upholding the TraceSource summary contract
/// even for crafted payloads with resealed checksums. On platforms
/// without mmap the file is read into memory instead (same semantics, no
/// longer out-of-core).
class MmapBinarySource final : public TraceSource {
public:
    explicit MmapBinarySource(const std::string& path);
    ~MmapBinarySource() override;

    MmapBinarySource(const MmapBinarySource&) = delete;
    MmapBinarySource& operator=(const MmapBinarySource&) = delete;

    std::uint64_t size() const override { return count_; }
    bool stable_chunks() const override { return !compressed_; }
    bool next(TraceChunk& chunk) override;
    void reset() override { block_ = 0; }

    bool compressed() const { return compressed_; }
    std::uint32_t chunk_accesses() const { return chunk_accesses_; }
    std::uint32_t block_count() const { return block_count_; }

private:
    void open_file();
    void close_file();
    void parse_header();
    std::uint32_t expected_block_accesses(std::uint32_t block) const;

    /// One block as stored: its payload, record count and seal.
    struct BlockView {
        const std::uint8_t* payload = nullptr;
        std::uint32_t count = 0;
        std::uint64_t payload_bytes = 0;
        std::uint64_t checksum = 0;  ///< stored, not yet verified
    };
    /// Validate block `b`'s header and bounds against the file (every
    /// delivery; the checksum and content checks run once, in next()).
    /// Throws memopt::Error on any corruption.
    BlockView locate_block(std::uint32_t block) const;

    std::string path_;
    // Mapping (or fallback buffer when mmap is unavailable).
    const std::uint8_t* map_ = nullptr;
    std::size_t map_bytes_ = 0;
    int fd_ = -1;
    bool mapped_ = false;
    std::vector<std::uint8_t> fallback_;

    std::uint64_t count_ = 0;
    std::uint32_t chunk_accesses_ = 0;
    std::uint32_t block_count_ = 0;
    bool compressed_ = false;
    const std::uint8_t* offset_table_ = nullptr;
    std::vector<bool> verified_;        ///< per-block one-time validation
    std::vector<std::uint64_t> decoded_;  ///< 8-aligned decode buffer
    std::uint32_t block_ = 0;           ///< cursor
};

}  // namespace memopt
