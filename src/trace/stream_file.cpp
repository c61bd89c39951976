#include "trace/stream_file.hpp"

#include <algorithm>
#include <bit>
#include <cstring>

#include <cerrno>

#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>

#include "compress/codec.hpp"
#include "compress/diff_codec.hpp"
#include "compress/zero_run.hpp"
#include "support/bytes.hpp"
#include "support/durable/atomic_file.hpp"
#include "support/durable/cancel.hpp"
#include "support/parallel.hpp"
#include "support/string_util.hpp"

namespace memopt {

namespace {

constexpr char kStreamMagic[4] = {'M', 'T', 'S', 'C'};
constexpr char kBlockMagic[4] = {'M', 'T', 'S', 'B'};
constexpr std::uint32_t kStreamVersion = 2;
constexpr std::uint32_t kFlagCompressed = 1u;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kBlockHeaderBytes = 24;
constexpr std::size_t kBytesPerAccess = 22;  // 8 addr + 8 cycle + 4 value + 1 size + 1 kind

// The smallest window MmapBinarySource maps: containers written with small
// blocks get many blocks per mmap.
constexpr std::uint64_t kMinWindowBytes = std::uint64_t{4} << 20;

// Line codec ids inside a compressed payload.
constexpr std::uint8_t kLineRaw = 0;
constexpr std::uint8_t kLineDiff = 1;
constexpr std::uint8_t kLineZeroRun = 2;

void require_little_endian() {
    require(std::endian::native == std::endian::little,
            "stream trace: the '.mtsc' zero-copy layout requires a little-endian host");
}

// Block checksum (see the layout comment in stream_file.hpp): four
// independent lanes, each absorbing every fourth 8-byte LE word with the
// multiply-rotate round below. The round is a bijection of the lane for a
// fixed word and of the word for a fixed lane, and the final combine is a
// bijection of each lane when the others are fixed, so any change confined
// to one word, in particular every single-bit flip, changes the checksum.
constexpr std::uint64_t kMixP1 = 0x9E3779B185EBCA87ULL;
constexpr std::uint64_t kMixP2 = 0xC2B2AE3D27D4EB4FULL;
constexpr std::uint64_t kMixP3 = 0x165667B19E3779F9ULL;
constexpr std::size_t kStripeBytes = 32;  // one word per lane

std::uint64_t load_word(const std::uint8_t* p) {
    std::uint64_t w;
    std::memcpy(&w, p, 8);  // little-endian host (require_little_endian)
    return w;
}

class ChecksumLanes {
public:
    /// Absorb `stripes` whole 32-byte stripes starting at `p`.
    void absorb(const std::uint8_t* p, std::size_t stripes) {
        std::uint64_t l0 = lane_[0], l1 = lane_[1], l2 = lane_[2], l3 = lane_[3];
        for (std::size_t s = 0; s < stripes; ++s, p += kStripeBytes) {
            l0 = round(l0, load_word(p));
            l1 = round(l1, load_word(p + 8));
            l2 = round(l2, load_word(p + 16));
            l3 = round(l3, load_word(p + 24));
        }
        lane_[0] = l0;
        lane_[1] = l1;
        lane_[2] = l2;
        lane_[3] = l3;
    }

    /// Absorb the `tail_bytes` (< 32) left after the whole stripes as one
    /// zero-padded stripe, then fold in the total length and avalanche.
    std::uint64_t finish(const std::uint8_t* tail, std::size_t tail_bytes,
                         std::uint64_t total_bytes) {
        if (tail_bytes > 0) {
            std::uint8_t stripe[kStripeBytes] = {};
            std::memcpy(stripe, tail, tail_bytes);
            absorb(stripe, 1);
        }
        std::uint64_t h = std::rotl(lane_[0], 1) + std::rotl(lane_[1], 7) +
                          std::rotl(lane_[2], 12) + std::rotl(lane_[3], 18) + total_bytes;
        h ^= h >> 33;
        h *= kMixP2;
        h ^= h >> 29;
        h *= kMixP3;
        h ^= h >> 32;
        return h;
    }

private:
    static std::uint64_t round(std::uint64_t lane, std::uint64_t word) {
        return std::rotl(lane + word * kMixP2, 31) * kMixP1;
    }

    std::uint64_t lane_[4] = {kMixP1 + kMixP2, kMixP2, 0, 0 - kMixP1};
};

// The raw column image of an `n`-record block (see the layout comment in
// stream_file.hpp): each column's byte offset, and the image's length. The
// writer packs a chunk into it (pack_image) and the reader views it as a
// chunk (view_image); every other reader of the image goes through these
// offsets too.
struct ImageLayout {
    explicit ImageLayout(std::size_t n)
        : cycles(n * 8), values(n * 16), sizes(n * 20), kinds(n * 21),
          bytes(n * kBytesPerAccess) {}

    std::size_t addrs = 0;
    std::size_t cycles, values, sizes, kinds, bytes;
};

void pack_image(const TraceChunk& c, std::uint8_t* image) {
    const ImageLayout at(c.size());
    std::memcpy(image + at.addrs, c.addrs.data(), c.addrs.size_bytes());
    std::memcpy(image + at.cycles, c.cycles.data(), c.cycles.size_bytes());
    std::memcpy(image + at.values, c.values.data(), c.values.size_bytes());
    std::memcpy(image + at.sizes, c.sizes.data(), c.sizes.size_bytes());
    std::memcpy(image + at.kinds, c.kinds.data(), c.kinds.size_bytes());
}

// The 8-aligned image holds naturally aligned columns, so the chunk views
// them in place.
TraceChunk view_image(const std::uint8_t* image, std::size_t n, std::uint64_t first) {
    const ImageLayout at(n);
    return TraceChunk(first, {reinterpret_cast<const std::uint64_t*>(image + at.addrs), n},
                      {reinterpret_cast<const std::uint64_t*>(image + at.cycles), n},
                      {reinterpret_cast<const std::uint32_t*>(image + at.values), n},
                      {image + at.sizes, n},
                      {reinterpret_cast<const AccessKind*>(image + at.kinds), n});
}

// The content rules every delivered record meets: size in {1, 2, 4, 8},
// kind 0 or 1, and [addr, addr + size - 1] inside the header's
// [min_addr, max_addr]. RecordScreen is the branch-free form that runs
// inside the checksum pass: clean() proves every screened record valid.
// It is conservative only for addresses within 7 bytes of max_addr, where
// it cannot see the record's size; check_records() then decides exactly.
class RecordScreen {
public:
    explicit RecordScreen(const TraceSummary& s)
        : min_addr_(s.min_addr), span_(s.max_addr - s.min_addr) {}

    void addrs(const std::uint64_t* a, std::size_t n) {
        std::uint64_t worst = worst_;
        for (std::size_t i = 0; i < n; ++i) worst = std::max(worst, a[i] - min_addr_);
        worst_ = worst;
    }

    void sizes(const std::uint8_t* s, std::size_t n) {
        std::uint8_t bad = bad_;
        for (std::size_t i = 0; i < n; ++i) {
            // s - 1 is in [0, 7] and shares no bit with s exactly for 1/2/4/8.
            const auto m = static_cast<std::uint8_t>(s[i] - 1);
            bad |= static_cast<std::uint8_t>((s[i] & m) | (m & 0xF8));
        }
        bad_ = bad;
    }

    void kinds(const std::uint8_t* k, std::size_t n) {
        std::uint8_t bad = bad_;
        for (std::size_t i = 0; i < n; ++i) bad |= static_cast<std::uint8_t>(k[i] & 0xFE);
        bad_ = bad;
    }

    /// Every column of `chunk` at once.
    void chunk(const TraceChunk& c) {
        addrs(c.addrs.data(), c.size());
        sizes(c.sizes.data(), c.size());
        kinds(reinterpret_cast<const std::uint8_t*>(c.kinds.data()), c.size());
    }

    bool clean() const { return bad_ == 0 && worst_ <= span_ && span_ - worst_ >= 7; }

private:
    std::uint64_t min_addr_;
    std::uint64_t span_;
    std::uint64_t worst_ = 0;  ///< max(addr - min_addr), wrapping below min_addr
    std::uint8_t bad_ = 0;     ///< OR of invalid size/kind bits
};

// Scan tile of the fused pass: small enough that the screen re-reads the
// tile from L1 right after the checksum loop brought it in.
constexpr std::size_t kScanTileBytes = std::size_t{8} << 10;

// The single pass over an uncompressed block: returns the checksum of its
// `n`-record column image and screens the addr/size/kind columns tile by
// tile on the way.
std::uint64_t scan_raw_block(const std::uint8_t* image, std::size_t n, RecordScreen& screen) {
    const ImageLayout at(n);
    const std::size_t bytes = at.bytes;
    ChecksumLanes lanes;
    for (std::size_t lo = 0; lo < bytes; lo += kScanTileBytes) {
        const std::size_t hi = std::min(lo + kScanTileBytes, bytes);
        lanes.absorb(image + lo, (hi - lo) / kStripeBytes);
        // The tile's share of the column image [begin, end) as a byte range.
        const auto overlap = [&](std::size_t begin, std::size_t end) {
            return std::pair{std::max(lo, begin), std::min(hi, end)};
        };
        if (const auto [b, e] = overlap(at.addrs, at.cycles); b < e)
            screen.addrs(reinterpret_cast<const std::uint64_t*>(image + b), (e - b) / 8);
        if (const auto [b, e] = overlap(at.sizes, at.kinds); b < e) screen.sizes(image + b, e - b);
        if (const auto [b, e] = overlap(at.kinds, at.bytes); b < e) screen.kinds(image + b, e - b);
    }
    const std::size_t tail = bytes % kStripeBytes;
    return lanes.finish(image + (bytes - tail), tail, bytes);
}

// The exact form of the content rules: throws memopt::Error naming block
// `block`'s first offending record.
void check_records(const TraceChunk& c, std::uint32_t block, const TraceSummary& s) {
    for (std::uint32_t i = 0; i < c.size(); ++i) {
        const std::uint64_t addr = c.addrs[i];
        const std::uint8_t size = c.sizes[i];
        if (size != 1 && size != 2 && size != 4 && size != 8) {
            throw Error(format("stream trace: block %u: record %u has invalid access size %u",
                               block, i, static_cast<unsigned>(size)));
        }
        if (static_cast<std::uint8_t>(c.kinds[i]) > 1) {
            throw Error(
                format("stream trace: block %u: record %u has invalid access kind", block, i));
        }
        if (addr < s.min_addr || addr > s.max_addr || s.max_addr - addr < size - 1u) {
            throw Error(format(
                "stream trace: block %u: record %u address outside the header summary range",
                block, i));
        }
    }
}

std::size_t pad8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

/// Where block 0 starts: right after the header and the offset table.
std::uint64_t first_block_offset(std::uint32_t block_count) {
    return kHeaderBytes + std::uint64_t{block_count} * 8;
}

// Split the raw column image into 4 KiB lines and store each as the
// smallest of {raw, diff-coded, zero-run-coded}. Line framing: u8 codec id,
// u32 stored length, then the stored bytes.
std::vector<std::uint8_t> compress_image(std::span<const std::uint8_t> image) {
    const DiffCodec diff;
    const ZeroRunCodec zero;
    std::vector<std::uint8_t> out;
    for (std::size_t off = 0; off < image.size(); off += kMaxLineBytes) {
        const std::size_t len = std::min(kMaxLineBytes, image.size() - off);
        const auto line = image.subspan(off, len);
        const std::vector<std::uint8_t> d = diff.encode(line).bytes();
        const std::vector<std::uint8_t> z = zero.encode(line).bytes();
        std::uint8_t id = kLineRaw;
        std::span<const std::uint8_t> stored = line;
        if (d.size() < stored.size()) {
            id = kLineDiff;
            stored = d;
        }
        if (z.size() < stored.size()) {
            id = kLineZeroRun;
            stored = z;
        }
        std::uint8_t frame[5];
        frame[0] = id;
        store_le32(frame + 1, static_cast<std::uint32_t>(stored.size()));
        out.insert(out.end(), frame, frame + 5);
        out.insert(out.end(), stored.begin(), stored.end());
    }
    return out;
}

// Inverse of compress_image: decode `payload` into the `image_bytes`-byte
// raw image at `image`. Throws memopt::Error on any structural corruption.
void decode_image(std::span<const std::uint8_t> payload, std::uint8_t* image,
                  std::size_t image_bytes, std::uint32_t block) {
    const DiffCodec diff;
    const ZeroRunCodec zero;
    std::size_t pos = 0;
    std::size_t out = 0;
    while (out < image_bytes) {
        require(pos + 5 <= payload.size(),
                format("stream trace: block %u: truncated compressed payload", block));
        const std::uint8_t id = payload[pos];
        const std::uint32_t len = load_le32(payload.data() + pos + 1);
        pos += 5;
        require(len <= payload.size() - pos,
                format("stream trace: block %u: truncated compressed payload", block));
        const std::size_t line_bytes = std::min(kMaxLineBytes, image_bytes - out);
        const auto stored = payload.subspan(pos, len);
        switch (id) {
            case kLineRaw:
                require(len == line_bytes,
                        format("stream trace: block %u: bad raw line length", block));
                std::memcpy(image + out, stored.data(), line_bytes);
                break;
            case kLineDiff:
            case kLineZeroRun: {
                const LineCodec& codec =
                    id == kLineDiff ? static_cast<const LineCodec&>(diff)
                                    : static_cast<const LineCodec&>(zero);
                const std::vector<std::uint8_t> line = codec.decode(stored, line_bytes);
                require(line.size() == line_bytes,
                        format("stream trace: block %u: bad decoded line length", block));
                std::memcpy(image + out, line.data(), line_bytes);
                break;
            }
            default:
                throw Error(format("stream trace: block %u: unknown line codec id %u", block,
                                   static_cast<unsigned>(id)));
        }
        pos += len;
        out += line_bytes;
    }
    require(pos == payload.size(),
            format("stream trace: block %u: trailing bytes in compressed payload", block));
}

}  // namespace

std::uint64_t mtsc_block_checksum(const std::uint8_t* data, std::size_t n) {
    ChecksumLanes lanes;
    lanes.absorb(data, n / kStripeBytes);
    const std::size_t tail = n % kStripeBytes;
    return lanes.finish(data + (n - tail), tail, n);
}

// ---------------------------------------------------------------------------
// Writer

TraceSummary write_trace_stream(const std::string& path, TraceSource& source,
                                const StreamWriteOptions& opts) {
    require_little_endian();
    require(opts.chunk_accesses > 0 && opts.chunk_accesses <= kMaxStreamChunkAccesses,
            "write_trace_stream: chunk_accesses out of range");
    const std::size_t chunk = opts.chunk_accesses;
    const std::uint64_t count = source.size();
    const std::uint64_t blocks64 = count == 0 ? 0 : (count + chunk - 1) / chunk;
    require(blocks64 <= 0xFFFFFFFFULL, "write_trace_stream: too many blocks");
    const auto block_count = static_cast<std::uint32_t>(blocks64);
    // Blocks are sealed in rounds of at least one block per task.
    const std::size_t tasks = default_jobs();

    TraceSummary s;
    // Crash-safe: blocks stream into <path>.tmp and the container appears
    // under its final name only on commit, so a killed writer never leaves
    // a truncated '.mtsc' where a reader could find it.
    atomic_write(path, [&](std::ostream& os) {
    // Header + offset table placeholders; rewritten once the summary and
    // the block offsets are known.
    {
        const std::vector<char> zeros(kHeaderBytes + std::size_t{block_count} * 8, 0);
        os.write(zeros.data(), static_cast<std::streamsize>(zeros.size()));
    }
    std::uint64_t file_off = first_block_offset(block_count);
    std::vector<std::uint64_t> offsets;
    offsets.reserve(block_count);

    s = TraceSummary{};
    // Staging: the source's chunking need not match the container's.
    ChunkBuffer staged;

    // One sealed block of a round: its column image, its compressed form
    // and the checksum of whichever of the two is stored.
    struct Sealed {
        std::vector<std::uint8_t> image;
        std::vector<std::uint8_t> packed;
        std::span<const std::uint8_t> payload;
        std::uint64_t checksum = 0;
    };
    std::vector<Sealed> round;

    // Seal the first `blocks` staged blocks (the last may be short) on
    // parallel tasks, write them in block order, and drop them from the
    // staging buffer.
    const auto emit = [&](std::size_t blocks) {
        const TraceChunk pending = staged.view();
        if (round.size() < blocks) round.resize(blocks);
        parallel_for(blocks, [&](std::size_t k) {
            const std::size_t at = k * chunk;
            const std::size_t n = std::min(chunk, pending.size() - at);
            Sealed& b = round[k];
            b.image.assign(pad8(n * kBytesPerAccess), 0);
            pack_image(pending.subchunk(at, n), b.image.data());
            b.payload = std::span<const std::uint8_t>(b.image).first(n * kBytesPerAccess);
            if (opts.compress) {
                b.packed = compress_image(b.image);
                b.payload = b.packed;
            }
            b.checksum = mtsc_block_checksum(b.payload.data(), b.payload.size());
        });
        for (std::size_t k = 0; k < blocks; ++k) {
            const Sealed& b = round[k];
            const std::size_t n = std::min(chunk, pending.size() - k * chunk);
            std::uint8_t head[kBlockHeaderBytes];
            std::memcpy(head, kBlockMagic, 4);
            store_le32(head + 4, static_cast<std::uint32_t>(n));
            store_le64(head + 8, b.payload.size());
            store_le64(head + 16, b.checksum);
            os.write(reinterpret_cast<const char*>(head), kBlockHeaderBytes);
            os.write(reinterpret_cast<const char*>(b.payload.data()),
                     static_cast<std::streamsize>(b.payload.size()));
            const std::size_t pad = pad8(b.payload.size()) - b.payload.size();
            const char zeros[8] = {0};
            os.write(zeros, static_cast<std::streamsize>(pad));

            offsets.push_back(file_off);
            file_off += kBlockHeaderBytes + b.payload.size() + pad;
        }
        staged.erase_front(std::min(pending.size(), blocks * chunk));
    };

    source.reset();
    std::vector<TraceChunk> batch;
    while (source.next_batch(batch, tasks)) {
        for (const TraceChunk& c : batch) {
            s.add(c);
            staged.append(c);
        }
        if (staged.size() >= tasks * chunk) emit(staged.size() / chunk);
    }
    if (!staged.empty()) emit((staged.size() + chunk - 1) / chunk);

    require(s.accesses == count,
            "write_trace_stream: source delivered a different access count than size()");
    MEMOPT_ASSERT(offsets.size() == block_count);

    std::uint8_t head[kHeaderBytes] = {};
    std::memcpy(head, kStreamMagic, 4);
    store_le32(head + 4, kStreamVersion);
    store_le64(head + 8, count);
    store_le32(head + 16, static_cast<std::uint32_t>(chunk));
    store_le32(head + 20, block_count);
    store_le32(head + 24, opts.compress ? kFlagCompressed : 0u);
    store_le64(head + 32, s.min_addr);
    store_le64(head + 40, s.max_addr);
    store_le64(head + 48, s.reads);
    store_le64(head + 56, s.writes);
    os.seekp(0);
    os.write(reinterpret_cast<const char*>(head), kHeaderBytes);
    std::vector<std::uint8_t> table(std::size_t{block_count} * 8);
    for (std::uint32_t b = 0; b < block_count; ++b) store_le64(table.data() + 8 * b, offsets[b]);
    os.write(reinterpret_cast<const char*>(table.data()),
             static_cast<std::streamsize>(table.size()));
    require(os.good(), "write_trace_stream: write failed for '" + path + "'");
    }, std::ios::binary);
    return s;
}

// ---------------------------------------------------------------------------
// MmapBinarySource

MmapBinarySource::MmapBinarySource(const std::string& path) : path_(path) {
    require_little_endian();
    fd_ = ::open(path_.c_str(), O_RDONLY);
    require(fd_ >= 0, "stream trace: cannot open '" + path_ + "'");
    try {
        struct stat st{};
        if (::fstat(fd_, &st) != 0 || st.st_size < 0)
            throw Error("stream trace: cannot stat '" + path_ + "'");
        file_bytes_ = static_cast<std::uint64_t>(st.st_size);
        parse_header();
    } catch (...) {
        // The destructor does not run when the constructor throws.
        close_file();
        throw;
    }
}

MmapBinarySource::~MmapBinarySource() { close_file(); }

void MmapBinarySource::close_file() {
    unmap_window();
    if (fd_ >= 0) ::close(fd_);
    fd_ = -1;
}

void MmapBinarySource::read_at(void* dst, std::size_t bytes, std::uint64_t offset) const {
    auto* out = static_cast<std::uint8_t*>(dst);
    while (bytes > 0) {
        const ::ssize_t got = ::pread(fd_, out, bytes, static_cast<::off_t>(offset));
        if (got < 0 && errno == EINTR) continue;
        if (got <= 0) throw Error("stream trace: read failed for '" + path_ + "'");
        const auto n = static_cast<std::size_t>(got);
        out += n;
        bytes -= n;
        offset += n;
    }
}

void MmapBinarySource::parse_header() {
    require(file_bytes_ >= kHeaderBytes, "stream trace: truncated header");
    std::uint8_t head[kHeaderBytes];
    read_at(head, kHeaderBytes, 0);
    require(std::memcmp(head, kStreamMagic, 4) == 0, "stream trace: bad magic");
    const std::uint32_t version = load_le32(head + 4);
    if (version != kStreamVersion) {
        throw Error(format("stream trace: '%s' is .mtsc version %u, this reader reads version %u "
                           "only; regenerate it with `memopt_cli trace`",
                           path_.c_str(), version, kStreamVersion));
    }
    count_ = load_le64(head + 8);
    chunk_accesses_ = load_le32(head + 16);
    block_count_ = load_le32(head + 20);
    const std::uint32_t flags = load_le32(head + 24);
    require((flags & ~kFlagCompressed) == 0, "stream trace: unknown flags");
    compressed_ = (flags & kFlagCompressed) != 0;
    require(chunk_accesses_ > 0 && chunk_accesses_ <= kMaxStreamChunkAccesses,
            "stream trace: invalid chunk size");
    const std::uint64_t expected =
        count_ == 0 ? 0 : (count_ + chunk_accesses_ - 1) / chunk_accesses_;
    require(block_count_ == expected, "stream trace: block count mismatch");
    // Bound the table against the file size BEFORE sizing anything from it.
    require(std::uint64_t{block_count_} * 8 <= file_bytes_ - kHeaderBytes,
            "stream trace: truncated block table");
    // An uncompressed container stores kBytesPerAccess payload bytes per
    // access, so the header count is bounded by the file size; reject a
    // lying count here instead of letting it size downstream allocations.
    // (Compressed containers have no fixed per-access size — their readers
    // clamp count-driven reserves instead.)
    if (!compressed_) {
        require(count_ <= (file_bytes_ - kHeaderBytes) / kBytesPerAccess,
                "stream trace: access count exceeds file size");
    }
    verified_.assign(block_count_, 0);
    next_offset_ = first_block_offset(block_count_);

    const std::uint64_t min_addr = load_le64(head + 32);
    const std::uint64_t max_addr = load_le64(head + 40);
    const std::uint64_t reads = load_le64(head + 48);
    require(reads <= count_, "stream trace: corrupt summary counts");
    const std::uint64_t writes = load_le64(head + 56);
    require(writes == count_ - reads, "stream trace: corrupt summary counts");
    require(count_ == 0 || min_addr <= max_addr, "stream trace: corrupt summary range");
    TraceSummary s;
    s.accesses = count_;
    s.reads = reads;
    s.writes = writes;
    s.min_addr = min_addr;
    s.max_addr = max_addr;
    set_summary(s);
}

std::uint32_t MmapBinarySource::expected_block_accesses(std::uint32_t block) const {
    if (block + 1 < block_count_) return chunk_accesses_;
    return static_cast<std::uint32_t>(count_ - std::uint64_t{block} * chunk_accesses_);
}

void MmapBinarySource::unmap_window() {
    if (window_ != nullptr) ::munmap(const_cast<std::uint8_t*>(window_), window_bytes_);
    window_ = nullptr;
    window_offset_ = 0;
    window_bytes_ = 0;
}

void MmapBinarySource::map_window(std::uint64_t lo, std::uint64_t hi) {
    if (window_ != nullptr && lo >= window_offset_ && hi <= window_offset_ + window_bytes_)
        return;
    unmap_window();
    static const auto page = static_cast<std::uint64_t>(::sysconf(_SC_PAGESIZE));
    const std::uint64_t start = lo / page * page;
    const std::uint64_t end = std::min(file_bytes_, std::max(hi, start + kMinWindowBytes));
    void* p = ::mmap(nullptr, static_cast<std::size_t>(end - start), PROT_READ, MAP_PRIVATE,
                     fd_, static_cast<::off_t>(start));
    if (p == MAP_FAILED) throw Error("stream trace: mmap failed for '" + path_ + "'");
    window_ = static_cast<const std::uint8_t*>(p);
    window_offset_ = start;
    window_bytes_ = static_cast<std::size_t>(end - start);
}

void MmapBinarySource::locate_blocks(std::uint32_t first, std::uint32_t n) {
    // The batch's offset-table entries, plus the next block's: the writer
    // lays blocks out back to back, so it bounds the last compressed block
    // before its header is read.
    const auto entries = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(std::uint64_t{n} + 1, block_count_ - first));
    table_.resize(entries);
    read_at(table_.data(), std::size_t{entries} * 8, kHeaderBytes + std::uint64_t{first} * 8);
    slots_.assign(n, BlockSlot{});
    const std::uint64_t blocks_start = first_block_offset(block_count_);
    std::uint64_t lo = file_bytes_;
    std::uint64_t hi = 0;
    for (std::uint32_t k = 0; k < n; ++k) {
        BlockSlot& slot = slots_[k];
        slot.offset = table_[k];
        if (slot.offset < blocks_start || slot.offset % 8 != 0 || slot.offset > file_bytes_ ||
            file_bytes_ - slot.offset < kBlockHeaderBytes) {
            slot.fault = "bad offset";
            continue;
        }
        // The block's extent: exact for an uncompressed block; up to the
        // next block for a compressed one, checked against its header below.
        std::uint64_t end = file_bytes_;
        if (!compressed_)
            end = slot.offset + kBlockHeaderBytes +
                  std::uint64_t{expected_block_accesses(first + k)} * kBytesPerAccess;
        else if (k + 1 < entries && table_[k + 1] > slot.offset)
            end = table_[k + 1];
        end = std::clamp(end, slot.offset + kBlockHeaderBytes, file_bytes_);
        lo = std::min(lo, slot.offset);
        hi = std::max(hi, end);
    }
    if (lo >= hi) return;  // every block has a bad offset
    map_window(lo, hi);

    // The block headers, in the order of the checks a block-by-block read
    // makes; each slot keeps its first fault. The writer lays the blocks out
    // back to back, so each must start where the previous one ends (the
    // first where the cursor's previous block ended): an entry that points
    // at another block, even one of the same access count, is a bad offset.
    // Behind a faulty block the chain is unknown, but that block's error is
    // the one the batch reports.
    std::uint64_t need = hi;
    std::uint64_t expected = next_offset_;
    bool chained = true;  // `expected` is known: every slot before k is sound
    for (std::uint32_t k = 0; k < n; ++k) {
        BlockSlot& slot = slots_[k];
        if (slot.fault == nullptr && chained && slot.offset != expected)
            slot.fault = "bad offset";
        chained = false;
        if (slot.fault != nullptr) continue;
        const std::uint8_t* p = window_ + (slot.offset - window_offset_);
        slot.count = load_le32(p + 4);
        slot.payload_bytes = load_le64(p + 8);
        slot.checksum = load_le64(p + 16);
        if (std::memcmp(p, kBlockMagic, 4) != 0) slot.fault = "bad block magic";
        else if (slot.count != expected_block_accesses(first + k))
            slot.fault = "access count mismatch";
        else if (slot.payload_bytes > file_bytes_ - slot.offset - kBlockHeaderBytes)
            slot.fault = "truncated payload";
        else if (!compressed_ && slot.payload_bytes != std::uint64_t{slot.count} * kBytesPerAccess)
            slot.fault = "bad payload size";
        if (slot.fault != nullptr) continue;
        need = std::max(need, slot.offset + kBlockHeaderBytes + slot.payload_bytes);
        expected = block_end(slot);
        chained = true;
    }
    // Only a corrupt container has a compressed block that runs past the
    // next block's offset.
    if (need > hi) map_window(lo, need);
}

TraceChunk MmapBinarySource::deliver_block(std::uint32_t block, std::size_t k,
                                           const TraceSummary& header) {
    const BlockSlot& slot = slots_[k];
    if (slot.fault != nullptr)
        throw Error(format("stream trace: block %u: %s", block, slot.fault));
    const std::uint8_t* payload = window_ + (slot.offset + kBlockHeaderBytes - window_offset_);
    const std::uint32_t n = slot.count;
    const bool first = verified_[block] == 0;

    // Downstream replay loops (e.g. BlockProfile::from_source) size their
    // buffers from the header summary and then index them by address
    // without per-access bounds checks, so the first delivery of a block
    // checks its seal AND pins every record's [addr, addr+size-1] inside
    // the header's [min_addr, max_addr]: a checksum only proves the payload
    // matches its own seal, so a crafted payload with a resealed checksum
    // must fail here with a block diagnostic, not corrupt memory in a
    // consumer. For an uncompressed block both checks are one pass.
    RecordScreen screen(header);
    if (first) {
        const std::uint64_t got =
            compressed_ ? mtsc_block_checksum(payload,
                                              static_cast<std::size_t>(slot.payload_bytes))
                        : scan_raw_block(payload, n, screen);
        if (got != slot.checksum) {
            throw Error(format("stream trace: block %u: checksum mismatch", block));
        }
    }

    const std::uint8_t* image = payload;
    if (compressed_) {
        const std::size_t padded = pad8(std::size_t{n} * kBytesPerAccess);
        // uint64_t backing guarantees the 8-byte alignment view_image
        // relies on; decode_image writes every byte.
        std::vector<std::uint64_t>& decoded = decoded_[k];
        decoded.resize(padded / 8);
        decode_image({payload, static_cast<std::size_t>(slot.payload_bytes)},
                     reinterpret_cast<std::uint8_t*>(decoded.data()), padded, block);
        image = reinterpret_cast<const std::uint8_t*>(decoded.data());
    }
    const TraceChunk chunk = view_image(image, n, std::uint64_t{block} * chunk_accesses_);
    if (first) {
        if (compressed_) screen.chunk(chunk);
        if (!screen.clean()) check_records(chunk, block, header);
        verified_[block] = 1;
    }
    return chunk;
}

bool MmapBinarySource::next_batch(std::vector<TraceChunk>& batch, std::size_t max_chunks,
                                  std::size_t jobs) {
    CancellationToken::global().check();
    require(max_chunks > 0, "MmapBinarySource::next_batch: max_chunks must be > 0");
    batch.clear();
    if (block_ >= block_count_) return false;
    const std::uint32_t first = block_;
    const auto n = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(max_chunks, block_count_ - first));
    locate_blocks(first, n);
    if (compressed_ && decoded_.size() < n) decoded_.resize(n);
    const TraceSummary& header = summary();
    batch.resize(n);
    // parallel_for rethrows the lowest failing block's error: the one a
    // block-by-block read meets first.
    parallel_for(
        n, [&](std::size_t k) { batch[k] = deliver_block(first + k, k, header); }, jobs);
    block_ = first + n;
    next_offset_ = block_end(slots_.back());
    return true;
}

void MmapBinarySource::reset() {
    block_ = 0;
    next_offset_ = first_block_offset(block_count_);
}

std::uint64_t MmapBinarySource::block_end(const BlockSlot& slot) {
    return slot.offset + kBlockHeaderBytes + pad8(slot.payload_bytes);
}

bool MmapBinarySource::next(TraceChunk& chunk) {
    if (!next_batch(single_, 1, 1)) {
        chunk = TraceChunk{};
        return false;
    }
    chunk = single_.front();
    return true;
}

}  // namespace memopt
