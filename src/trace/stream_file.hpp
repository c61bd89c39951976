// Block-structured streaming trace container (".mtsc") and its reader.
//
// The toolkit's binary trace format. Next to the diffable text format
// (trace/io.hpp), the ".mtsc" container stores a trace as a sequence of SoA
// *blocks* so that a reader can
//  * map a window of blocks at a time and hand out zero-copy column spans
//    per block (MmapBinarySource — the out-of-core replay path, whose
//    address space grows with its batches, not with the file),
//  * verify integrity per block (checksum + structural validation) instead
//    of trusting the whole file, and
//  * verify and decode a batch's blocks in parallel: the offset table gives
//    random access to every block, and the blocks are independent.
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
// The blocks lie back to back in block order: block 0 starts right after
// the offset table, and block b+1 where block b's padding ends. A block
// header carries no index and its seal covers only the payload, so the
// reader checks every offset-table entry against that chain; an entry
// that points at another block is a "bad offset".
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
// records are screened after decoding. The blocks of one batch are
// verified (and decoded) on parallel tasks; a batch that holds several
// faulty blocks reports the lowest one, as a block-by-block read would.
// Measured first pass over a freshly mapped 10^7-access (220 MB)
// container, one thread: 5.5-7.3 ns per access (Release, GCC 12.2, 4-vCPU
// x86-64), against 3.2-3.3 ns per access to merely sum every word of the
// same mapping.
//
// The writer builds, compresses and seals a round of blocks in parallel
// (one per task) and writes them in block order, so the container's bytes
// do not depend on the job count.
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

/// Stream `source` into a ".mtsc" container at `path` (memory grows with
/// one round of blocks per task, not with the trace). Returns the
/// whole-trace summary that was written into the header. Throws
/// memopt::Error on I/O failure, on an access whose last byte lies past
/// 2^64 - 1, or if the source delivers a different number of accesses than
/// its size() promised; a failed write leaves no file at `path`.
TraceSummary write_trace_stream(const std::string& path, TraceSource& source,
                                const StreamWriteOptions& opts = {});

/// The ".mtsc" block checksum of `n` bytes at `data` (see the layout
/// comment above). Exposed so tests can reseal crafted payloads.
std::uint64_t mtsc_block_checksum(const std::uint8_t* data, std::size_t n);

/// Windowed reader for the ".mtsc" container (POSIX mmap and pread).
///
/// next_batch() maps one page-aligned window over the batch's whole blocks
/// (at least 4 MiB, so a container written with small blocks does not pay
/// one mmap per block, and a window that already covers the batch is
/// reused). It then runs each block's first-delivery checks —
/// offset and block header, checksum, record screen, and the exact
/// per-record check when the screen flags the block — and a compressed
/// block's decode in one parallel_for over the batch's blocks. The checks
/// uphold the TraceSource summary contract (access sizes, kinds, and
/// address ranges against the header summary) even for crafted payloads
/// with resealed checksums. Uncompressed blocks are delivered as zero-copy
/// spans into the window, compressed ones out of per-block decode buffers;
/// both stay valid until the next next()/next_batch()/reset(), after which
/// the window may be unmapped. next() is a batch of one on the calling
/// thread. Address space and RSS grow with the batch, not with the file.
class MmapBinarySource final : public TraceSource {
public:
    explicit MmapBinarySource(const std::string& path);
    ~MmapBinarySource() override;

    MmapBinarySource(const MmapBinarySource&) = delete;
    MmapBinarySource& operator=(const MmapBinarySource&) = delete;

    std::uint64_t size() const override { return count_; }
    bool next(TraceChunk& chunk) override;
    bool next_batch(std::vector<TraceChunk>& batch, std::size_t max_chunks,
                    std::size_t jobs = 0) override;
    void reset() override;

    bool compressed() const { return compressed_; }
    std::uint32_t chunk_accesses() const { return chunk_accesses_; }
    std::uint32_t block_count() const { return block_count_; }

private:
    /// One block of the current batch, located but not yet verified.
    struct BlockSlot {
        std::uint64_t offset = 0;  ///< of the block header in the file
        std::uint32_t count = 0;
        std::uint64_t payload_bytes = 0;
        std::uint64_t checksum = 0;     ///< stored, not yet verified
        const char* fault = nullptr;    ///< first structural fault, if any
    };

    void close_file();
    void parse_header();
    void read_at(void* dst, std::size_t bytes, std::uint64_t offset) const;
    std::uint32_t expected_block_accesses(std::uint32_t block) const;
    /// Locate blocks [first, first + n) into slots_ and map a window over
    /// them. Structural faults are recorded per slot, not thrown, so that
    /// the batch reports its lowest faulty block whatever the fault.
    void locate_blocks(std::uint32_t first, std::uint32_t n);
    /// The file offset just past `slot`'s block and its padding: where the
    /// next block starts.
    static std::uint64_t block_end(const BlockSlot& slot);
    /// Keep or replace the window so that it covers file bytes [lo, hi).
    void map_window(std::uint64_t lo, std::uint64_t hi);
    void unmap_window();
    /// Verify block `block` on its first delivery, decode it into slot `k`'s
    /// buffer if compressed, and return its chunk. Throws memopt::Error on
    /// any corruption.
    TraceChunk deliver_block(std::uint32_t block, std::size_t k, const TraceSummary& header);

    std::string path_;
    int fd_ = -1;
    std::uint64_t file_bytes_ = 0;
    // The mapped window: file bytes [window_offset_, window_offset_ + window_bytes_).
    const std::uint8_t* window_ = nullptr;
    std::uint64_t window_offset_ = 0;
    std::size_t window_bytes_ = 0;

    std::uint64_t count_ = 0;
    std::uint32_t chunk_accesses_ = 0;
    std::uint32_t block_count_ = 0;
    bool compressed_ = false;
    /// Per-block first-delivery flags: one byte each, because the tasks
    /// of a batch set them from several threads.
    std::vector<std::uint8_t> verified_;
    std::vector<std::uint64_t> table_;     ///< the batch's offset-table entries
    std::vector<BlockSlot> slots_;         ///< the batch's blocks
    std::vector<std::vector<std::uint64_t>> decoded_;  ///< per-slot 8-aligned decode buffers
    std::vector<TraceChunk> single_;       ///< next()'s batch of one
    std::uint32_t block_ = 0;              ///< cursor
    std::uint64_t next_offset_ = 0;        ///< where block block_ must start
};

}  // namespace memopt
