#include "trace/stream_file.hpp"

#include <algorithm>
#include <bit>
#include <cstring>
#include <fstream>

#include "compress/codec.hpp"
#include "compress/diff_codec.hpp"
#include "compress/zero_run.hpp"
#include "support/bytes.hpp"
#include "support/durable/atomic_file.hpp"
#include "support/durable/cancel.hpp"
#include "support/string_util.hpp"

#if defined(__unix__) || (defined(__APPLE__) && defined(__MACH__))
#define MEMOPT_HAS_MMAP 1
#include <fcntl.h>
#include <sys/mman.h>
#include <sys/stat.h>
#include <unistd.h>
#endif

namespace memopt {

namespace {

constexpr char kStreamMagic[4] = {'M', 'T', 'S', 'C'};
constexpr char kBlockMagic[4] = {'M', 'T', 'S', 'B'};
constexpr std::uint32_t kStreamVersion = 2;
constexpr std::uint32_t kFlagCompressed = 1u;
constexpr std::size_t kHeaderBytes = 64;
constexpr std::size_t kBlockHeaderBytes = 24;
constexpr std::size_t kBytesPerAccess = 22;  // 8 addr + 8 cycle + 4 value + 1 size + 1 kind

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

    /// All columns of an `n`-record raw image at once.
    void image(const std::uint8_t* image, std::size_t n) {
        addrs(reinterpret_cast<const std::uint64_t*>(image), n);
        sizes(image + n * 20, n);
        kinds(image + n * 21, n);
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
    const std::size_t bytes = n * kBytesPerAccess;
    const auto* addrs = reinterpret_cast<const std::uint64_t*>(image);
    ChecksumLanes lanes;
    for (std::size_t lo = 0; lo < bytes; lo += kScanTileBytes) {
        const std::size_t hi = std::min(lo + kScanTileBytes, bytes);
        lanes.absorb(image + lo, (hi - lo) / kStripeBytes);
        // The tile's share of a column [begin, begin + len) as a byte range.
        const auto overlap = [&](std::size_t begin, std::size_t len) {
            return std::pair{std::max(lo, begin), std::min(hi, begin + len)};
        };
        if (const auto [b, e] = overlap(0, n * 8); b < e) screen.addrs(addrs + b / 8, (e - b) / 8);
        if (const auto [b, e] = overlap(n * 20, n); b < e) screen.sizes(image + b, e - b);
        if (const auto [b, e] = overlap(n * 21, n); b < e) screen.kinds(image + b, e - b);
    }
    const std::size_t tail = bytes % kStripeBytes;
    return lanes.finish(image + (bytes - tail), tail, bytes);
}

// The exact form of the content rules: throws memopt::Error naming block
// `block`'s first offending record.
void check_records(const std::uint8_t* image, std::uint32_t n, std::uint32_t block,
                   const TraceSummary& s) {
    const auto* a = reinterpret_cast<const std::uint64_t*>(image);
    const std::uint8_t* sz = image + std::size_t{n} * 20;
    const std::uint8_t* kd = image + std::size_t{n} * 21;
    for (std::uint32_t i = 0; i < n; ++i) {
        const std::uint8_t size = sz[i];
        if (size != 1 && size != 2 && size != 4 && size != 8) {
            throw Error(format("stream trace: block %u: record %u has invalid access size %u",
                               block, i, static_cast<unsigned>(size)));
        }
        if (kd[i] > 1) {
            throw Error(
                format("stream trace: block %u: record %u has invalid access kind", block, i));
        }
        if (a[i] < s.min_addr || a[i] > s.max_addr || s.max_addr - a[i] < size - 1u) {
            throw Error(format(
                "stream trace: block %u: record %u address outside the header summary range",
                block, i));
        }
    }
}

std::size_t pad8(std::size_t n) { return (n + 7) & ~std::size_t{7}; }

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
    const std::uint64_t count = source.size();
    const std::uint64_t blocks64 =
        count == 0 ? 0 : (count + opts.chunk_accesses - 1) / opts.chunk_accesses;
    require(blocks64 <= 0xFFFFFFFFULL, "write_trace_stream: too many blocks");
    const auto block_count = static_cast<std::uint32_t>(blocks64);

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
    std::uint64_t file_off = kHeaderBytes + std::uint64_t{block_count} * 8;
    std::vector<std::uint64_t> offsets;
    offsets.reserve(block_count);

    s = TraceSummary{};
    // Staging columns: the source's chunking need not match the container's.
    std::vector<std::uint64_t> addrs;
    std::vector<std::uint64_t> cycles;
    std::vector<std::uint32_t> values;
    std::vector<std::uint8_t> sizes;
    std::vector<AccessKind> kinds;

    const auto emit_block = [&](std::size_t n) {
        const std::size_t raw = n * kBytesPerAccess;
        std::vector<std::uint8_t> image(pad8(raw), 0);
        std::memcpy(image.data(), addrs.data(), n * 8);
        std::memcpy(image.data() + n * 8, cycles.data(), n * 8);
        std::memcpy(image.data() + n * 16, values.data(), n * 4);
        std::memcpy(image.data() + n * 20, sizes.data(), n);
        std::memcpy(image.data() + n * 21, kinds.data(), n);

        std::vector<std::uint8_t> compressed;
        if (opts.compress) compressed = compress_image(image);
        const std::uint8_t* payload = opts.compress ? compressed.data() : image.data();
        const std::size_t payload_bytes = opts.compress ? compressed.size() : raw;

        std::uint8_t head[kBlockHeaderBytes];
        std::memcpy(head, kBlockMagic, 4);
        store_le32(head + 4, static_cast<std::uint32_t>(n));
        store_le64(head + 8, payload_bytes);
        store_le64(head + 16, mtsc_block_checksum(payload, payload_bytes));
        os.write(reinterpret_cast<const char*>(head), kBlockHeaderBytes);
        os.write(reinterpret_cast<const char*>(payload),
                 static_cast<std::streamsize>(payload_bytes));
        const std::size_t pad = pad8(payload_bytes) - payload_bytes;
        const char zeros[8] = {0};
        os.write(zeros, static_cast<std::streamsize>(pad));

        offsets.push_back(file_off);
        file_off += kBlockHeaderBytes + payload_bytes + pad;

        const auto dn = static_cast<std::ptrdiff_t>(n);
        addrs.erase(addrs.begin(), addrs.begin() + dn);
        cycles.erase(cycles.begin(), cycles.begin() + dn);
        values.erase(values.begin(), values.begin() + dn);
        sizes.erase(sizes.begin(), sizes.begin() + dn);
        kinds.erase(kinds.begin(), kinds.begin() + dn);
    };

    source.reset();
    TraceChunk c;
    while (source.next(c)) {
        s.add(c);
        addrs.insert(addrs.end(), c.addrs.begin(), c.addrs.end());
        cycles.insert(cycles.end(), c.cycles.begin(), c.cycles.end());
        values.insert(values.end(), c.values.begin(), c.values.end());
        sizes.insert(sizes.end(), c.sizes.begin(), c.sizes.end());
        kinds.insert(kinds.end(), c.kinds.begin(), c.kinds.end());
        while (addrs.size() >= opts.chunk_accesses) emit_block(opts.chunk_accesses);
    }
    if (!addrs.empty()) emit_block(addrs.size());

    require(s.accesses == count,
            "write_trace_stream: source delivered a different access count than size()");
    MEMOPT_ASSERT(offsets.size() == block_count);

    std::uint8_t head[kHeaderBytes] = {};
    std::memcpy(head, kStreamMagic, 4);
    store_le32(head + 4, kStreamVersion);
    store_le64(head + 8, count);
    store_le32(head + 16, static_cast<std::uint32_t>(opts.chunk_accesses));
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
    open_file();
    try {
        parse_header();
    } catch (...) {
        // The destructor does not run when the constructor throws.
        close_file();
        throw;
    }
}

MmapBinarySource::~MmapBinarySource() { close_file(); }

void MmapBinarySource::open_file() {
#if MEMOPT_HAS_MMAP
    fd_ = ::open(path_.c_str(), O_RDONLY);
    require(fd_ >= 0, "stream trace: cannot open '" + path_ + "'");
    struct stat st{};
    if (::fstat(fd_, &st) != 0 || st.st_size < 0) {
        close_file();
        throw Error("stream trace: cannot stat '" + path_ + "'");
    }
    map_bytes_ = static_cast<std::size_t>(st.st_size);
    if (map_bytes_ > 0) {
        void* p = ::mmap(nullptr, map_bytes_, PROT_READ, MAP_PRIVATE, fd_, 0);
        if (p == MAP_FAILED) {
            close_file();
            throw Error("stream trace: mmap failed for '" + path_ + "'");
        }
        map_ = static_cast<const std::uint8_t*>(p);
        mapped_ = true;
    }
#else
    // No mmap on this platform: read the whole file (same semantics, not
    // out-of-core).
    std::ifstream is(path_, std::ios::binary);
    require(is.is_open(), "stream trace: cannot open '" + path_ + "'");
    is.seekg(0, std::ios::end);
    const std::streamoff end = is.tellg();
    is.seekg(0, std::ios::beg);
    fallback_.resize(end > 0 ? static_cast<std::size_t>(end) : 0);
    if (!fallback_.empty()) {
        is.read(reinterpret_cast<char*>(fallback_.data()),
                static_cast<std::streamsize>(fallback_.size()));
        require(is.gcount() == static_cast<std::streamsize>(fallback_.size()),
                "stream trace: short read for '" + path_ + "'");
    }
    map_ = fallback_.data();
    map_bytes_ = fallback_.size();
#endif
}

void MmapBinarySource::close_file() {
#if MEMOPT_HAS_MMAP
    if (mapped_ && map_ != nullptr) {
        ::munmap(const_cast<std::uint8_t*>(map_), map_bytes_);
    }
    if (fd_ >= 0) ::close(fd_);
#endif
    map_ = nullptr;
    mapped_ = false;
    fd_ = -1;
}

void MmapBinarySource::parse_header() {
    require(map_bytes_ >= kHeaderBytes, "stream trace: truncated header");
    require(std::memcmp(map_, kStreamMagic, 4) == 0, "stream trace: bad magic");
    const std::uint32_t version = load_le32(map_ + 4);
    if (version != kStreamVersion) {
        throw Error(format("stream trace: '%s' is .mtsc version %u, this reader reads version %u "
                           "only; regenerate it with `memopt_cli trace`",
                           path_.c_str(), version, kStreamVersion));
    }
    count_ = load_le64(map_ + 8);
    chunk_accesses_ = load_le32(map_ + 16);
    block_count_ = load_le32(map_ + 20);
    const std::uint32_t flags = load_le32(map_ + 24);
    require((flags & ~kFlagCompressed) == 0, "stream trace: unknown flags");
    compressed_ = (flags & kFlagCompressed) != 0;
    require(chunk_accesses_ > 0 && chunk_accesses_ <= kMaxStreamChunkAccesses,
            "stream trace: invalid chunk size");
    const std::uint64_t expected =
        count_ == 0 ? 0 : (count_ + chunk_accesses_ - 1) / chunk_accesses_;
    require(block_count_ == expected, "stream trace: block count mismatch");
    // Bound the table against the file size BEFORE sizing anything from it.
    require(std::uint64_t{block_count_} * 8 <= map_bytes_ - kHeaderBytes,
            "stream trace: truncated block table");
    // An uncompressed container stores kBytesPerAccess payload bytes per
    // access, so the header count is bounded by the file size; reject a
    // lying count here instead of letting it size downstream allocations.
    // (Compressed containers have no fixed per-access size — their readers
    // clamp count-driven reserves instead.)
    if (!compressed_) {
        require(count_ <= (map_bytes_ - kHeaderBytes) / kBytesPerAccess,
                "stream trace: access count exceeds file size");
    }
    offset_table_ = map_ + kHeaderBytes;
    verified_.assign(block_count_, false);

    const std::uint64_t min_addr = load_le64(map_ + 32);
    const std::uint64_t max_addr = load_le64(map_ + 40);
    const std::uint64_t reads = load_le64(map_ + 48);
    require(reads <= count_, "stream trace: corrupt summary counts");
    const std::uint64_t writes = load_le64(map_ + 56);
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

MmapBinarySource::BlockView MmapBinarySource::locate_block(std::uint32_t block) const {
    const std::uint64_t off = load_le64(offset_table_ + std::size_t{block} * 8);
    const std::uint64_t blocks_start = kHeaderBytes + std::uint64_t{block_count_} * 8;
    require(off >= blocks_start && off % 8 == 0 && off <= map_bytes_ &&
                map_bytes_ - off >= kBlockHeaderBytes,
            format("stream trace: block %u: bad offset", block));
    const std::uint8_t* p = map_ + off;
    require(std::memcmp(p, kBlockMagic, 4) == 0,
            format("stream trace: block %u: bad block magic", block));
    BlockView view;
    view.count = load_le32(p + 4);
    require(view.count == expected_block_accesses(block),
            format("stream trace: block %u: access count mismatch", block));
    view.payload_bytes = load_le64(p + 8);
    require(view.payload_bytes <= map_bytes_ - off - kBlockHeaderBytes,
            format("stream trace: block %u: truncated payload", block));
    if (!compressed_) {
        require(view.payload_bytes == std::uint64_t{view.count} * kBytesPerAccess,
                format("stream trace: block %u: bad payload size", block));
    }
    view.checksum = load_le64(p + 16);
    view.payload = p + kBlockHeaderBytes;
    return view;
}

bool MmapBinarySource::next(TraceChunk& chunk) {
    CancellationToken::global().check();
    if (block_ >= block_count_) {
        chunk = TraceChunk{};
        return false;
    }
    const std::uint32_t b = block_;
    const BlockView view = locate_block(b);
    const std::uint32_t n = view.count;
    const bool first = !verified_[b];

    // Downstream replay loops (e.g. BlockProfile::from_source) size their
    // buffers from the header summary and then index them by address
    // without per-access bounds checks, so the first delivery of a block
    // checks its seal AND pins every record's [addr, addr+size-1] inside
    // the header's [min_addr, max_addr]: a checksum only proves the payload
    // matches its own seal, so a crafted payload with a resealed checksum
    // must fail here with a block diagnostic, not corrupt memory in a
    // consumer. For an uncompressed block both checks are one pass.
    RecordScreen screen(summary());
    if (first) {
        const std::uint64_t got =
            compressed_ ? mtsc_block_checksum(view.payload,
                                              static_cast<std::size_t>(view.payload_bytes))
                        : scan_raw_block(view.payload, n, screen);
        if (got != view.checksum) {
            throw Error(format("stream trace: block %u: checksum mismatch", b));
        }
    }

    const std::uint8_t* image = view.payload;
    if (compressed_) {
        const std::size_t raw = std::size_t{n} * kBytesPerAccess;
        // uint64_t backing guarantees the 8-byte alignment the column
        // reinterpret_casts below rely on.
        decoded_.assign(pad8(raw) / 8, 0);
        decode_image({view.payload, static_cast<std::size_t>(view.payload_bytes)},
                     reinterpret_cast<std::uint8_t*>(decoded_.data()), pad8(raw), b);
        image = reinterpret_cast<const std::uint8_t*>(decoded_.data());
        if (first) screen.image(image, n);
    }
    if (first) {
        if (!screen.clean()) check_records(image, n, b, summary());
        verified_[b] = true;
    }

    const auto* a = reinterpret_cast<const std::uint64_t*>(image);
    const auto* cy = reinterpret_cast<const std::uint64_t*>(image + std::size_t{n} * 8);
    const auto* v = reinterpret_cast<const std::uint32_t*>(image + std::size_t{n} * 16);
    const std::uint8_t* sz = image + std::size_t{n} * 20;
    const auto* kd = reinterpret_cast<const AccessKind*>(image + std::size_t{n} * 21);

    chunk = TraceChunk(std::uint64_t{b} * chunk_accesses_, std::span(a, n), std::span(cy, n),
                       std::span(v, n), std::span(sz, n), std::span(kd, n));
    ++block_;
    return true;
}

}  // namespace memopt
