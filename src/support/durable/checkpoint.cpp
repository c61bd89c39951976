#include "support/durable/checkpoint.hpp"

#include <algorithm>
#include <bit>
#include <cstdint>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>

#include "support/assert.hpp"
#include "support/bytes.hpp"
#include "support/durable/atomic_file.hpp"
#include "support/durable/cancel.hpp"
#include "support/parallel.hpp"

namespace memopt {

namespace {

constexpr char kCkptMagic[4] = {'M', 'C', 'K', 'P'};
constexpr std::size_t kHeaderBytes = 32;

}  // namespace

std::string encode_checkpoint(const Checkpoint& ckpt) {
    std::size_t body = 0;
    for (const std::string& r : ckpt.records) body += 4 + r.size();
    std::string out(kHeaderBytes + body + 8, '\0');
    auto* p = reinterpret_cast<std::uint8_t*>(out.data());
    std::memcpy(p, kCkptMagic, 4);
    store_le32(p + 4, kCkptVersion);
    store_le32(p + 8, ckpt.engine);
    store_le32(p + 12, 0);
    store_le64(p + 16, ckpt.config_hash);
    store_le64(p + 24, static_cast<std::uint64_t>(ckpt.records.size()));
    std::size_t at = kHeaderBytes;
    for (const std::string& r : ckpt.records) {
        store_le32(p + at, static_cast<std::uint32_t>(r.size()));
        std::memcpy(p + at + 4, r.data(), r.size());
        at += 4 + r.size();
    }
    store_le64(p + at, fnv1a64(std::span<const std::uint8_t>(p, at)));
    return out;
}

void save_checkpoint(const std::string& path, const Checkpoint& ckpt) {
    require(ckpt.records.size() <= (kMaxCheckpointBytes - kHeaderBytes - 8) / 4,
            "checkpoint: too many records");
    atomic_write(path, encode_checkpoint(ckpt), std::ios_base::binary);
}

Checkpoint load_checkpoint(const std::string& path) {
    std::ifstream is(path, std::ios::binary);
    require(is.good(), "checkpoint: cannot open: " + path);
    is.seekg(0, std::ios::end);
    const auto end = is.tellg();
    require(end >= 0, "checkpoint: cannot size: " + path);
    const auto size = static_cast<std::uint64_t>(end);
    require(size <= kMaxCheckpointBytes, "checkpoint: file exceeds size cap: " + path);
    require(size >= kHeaderBytes + 8, "checkpoint: truncated header: " + path);
    is.seekg(0, std::ios::beg);
    std::string buf(static_cast<std::size_t>(size), '\0');
    is.read(buf.data(), static_cast<std::streamsize>(size));
    require(is.gcount() == static_cast<std::streamsize>(size),
            "checkpoint: short read: " + path);

    const auto* p = reinterpret_cast<const std::uint8_t*>(buf.data());
    require(std::memcmp(p, kCkptMagic, 4) == 0, "checkpoint: bad magic: " + path);
    require(load_le32(p + 4) == kCkptVersion, "checkpoint: unsupported version: " + path);
    const std::uint64_t stated = fnv1a64(std::span<const std::uint8_t>(p, size - 8));
    require(load_le64(p + size - 8) == stated, "checkpoint: checksum mismatch: " + path);

    Checkpoint ckpt;
    ckpt.engine = load_le32(p + 8);
    require(load_le32(p + 12) == 0, "checkpoint: nonzero reserved field: " + path);
    ckpt.config_hash = load_le64(p + 16);
    const std::uint64_t count = load_le64(p + 24);
    const std::uint64_t body_end = size - 8;
    // Every record needs at least its 4-byte length prefix, so `count` is
    // bounded by the bytes actually present — reject before reserving.
    require(count <= (body_end - kHeaderBytes) / 4, "checkpoint: record count exceeds file: " + path);
    ckpt.records.reserve(static_cast<std::size_t>(count));
    std::uint64_t at = kHeaderBytes;
    for (std::uint64_t i = 0; i < count; ++i) {
        require(at + 4 <= body_end, "checkpoint: record length truncated: " + path);
        const std::uint32_t len = load_le32(p + at);
        require(at + 4 + len <= body_end, "checkpoint: record payload truncated: " + path);
        ckpt.records.emplace_back(buf.data() + at + 4, len);
        at += 4 + len;
    }
    require(at == body_end, "checkpoint: trailing bytes after records: " + path);
    return ckpt;
}

std::optional<Checkpoint> load_checkpoint_for_resume(const std::string& path,
                                                     std::uint32_t engine,
                                                     std::uint64_t config_hash) {
    std::error_code ec;
    if (!std::filesystem::exists(path, ec)) return std::nullopt;
    Checkpoint ckpt;
    try {
        ckpt = load_checkpoint(path);
    } catch (const Error& e) {
        std::cerr << "memopt: warning: ignoring unusable checkpoint (" << e.what()
                  << "); starting fresh\n";
        return std::nullopt;
    }
    if (ckpt.engine != engine) {
        std::cerr << "memopt: warning: checkpoint " << path
                  << " belongs to a different engine; starting fresh\n";
        return std::nullopt;
    }
    if (ckpt.config_hash != config_hash) {
        std::cerr << "memopt: warning: checkpoint " << path
                  << " was written under a different configuration; starting fresh\n";
        return std::nullopt;
    }
    return ckpt;
}

RecordWriter& RecordWriter::u32(std::uint32_t v) {
    std::uint8_t b[4];
    store_le32(b, v);
    bytes_.append(reinterpret_cast<const char*>(b), sizeof(b));
    return *this;
}

RecordWriter& RecordWriter::u64(std::uint64_t v) {
    std::uint8_t b[8];
    store_le64(b, v);
    bytes_.append(reinterpret_cast<const char*>(b), sizeof(b));
    return *this;
}

RecordWriter& RecordWriter::f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }

RecordWriter& RecordWriter::str(std::string_view s) {
    u32(static_cast<std::uint32_t>(s.size()));
    bytes_.append(s);
    return *this;
}

const char* RecordReader::take(std::size_t n) {
    require(n <= record_.size() - at_, std::string(what_) + ": truncated record");
    const char* p = record_.data() + at_;
    at_ += n;
    return p;
}

std::uint32_t RecordReader::u32() {
    return load_le32(reinterpret_cast<const std::uint8_t*>(take(4)));
}

std::uint64_t RecordReader::u64() {
    return load_le64(reinterpret_cast<const std::uint8_t*>(take(8)));
}

double RecordReader::f64() { return std::bit_cast<double>(u64()); }

std::string RecordReader::str() {
    const std::uint32_t len = u32();
    return std::string(take(len), len);
}

void RecordReader::finish() const {
    require(at_ == record_.size(), std::string(what_) + ": trailing bytes in record");
}

CheckpointedRun run_checkpointed(std::uint32_t engine, std::uint64_t config_hash,
                                 std::size_t units,
                                 const std::function<std::string(std::size_t)>& run_unit,
                                 const CheckpointOptions& options, std::size_t jobs) {
    Checkpoint ckpt{engine, config_hash, {}};
    if (options.resume && !options.path.empty()) {
        if (std::optional<Checkpoint> loaded =
                load_checkpoint_for_resume(options.path, engine, config_hash)) {
            // The config hash pins the unit count, so a valid checkpoint
            // never holds more records than the run has units.
            require(loaded->records.size() <= units, "checkpoint: more records than units");
            ckpt.records = std::move(loaded->records);
        }
    }
    const auto snapshot = [&] {
        if (!options.path.empty()) save_checkpoint(options.path, ckpt);
    };

    CheckpointedRun run;
    CancellationToken& token = CancellationToken::global();
    std::size_t new_units = 0;
    while (ckpt.records.size() < units) {
        if (token.triggered()) {
            run.stop_reason = token.reason();
            break;
        }
        if (options.max_units_this_run != 0 && new_units >= options.max_units_this_run) {
            run.stop_reason = "unit budget for this run exhausted";
            break;
        }
        const std::size_t begin = ckpt.records.size();
        std::size_t batch = units - begin;
        if (!options.path.empty()) batch = std::min(batch, std::max<std::size_t>(options.every, 1));
        if (options.max_units_this_run != 0)
            batch = std::min(batch, options.max_units_this_run - new_units);
        std::vector<std::string> finished(batch);
        try {
            parallel_for(
                batch, [&](std::size_t i) { finished[i] = run_unit(begin + i); }, jobs);
        } catch (const CancelledError& e) {
            // A trip inside the batch discards it (units are cheap to
            // recompute); the completed prefix is what gets snapshotted.
            run.stop_reason = token.reason().empty() ? e.what() : token.reason();
            break;
        }
        ckpt.records.insert(ckpt.records.end(), std::make_move_iterator(finished.begin()),
                            std::make_move_iterator(finished.end()));
        new_units += batch;
        snapshot();
    }

    run.completed = ckpt.records.size() == units;
    if (!run.completed) snapshot();
    run.records = std::move(ckpt.records);
    return run;
}

}  // namespace memopt
