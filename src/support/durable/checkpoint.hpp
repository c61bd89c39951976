// memopt.ckpt.v1 — the checkpoint container for long-run engines.
//
// A checkpoint is an append-only log of completed work units, snapshotted
// atomically every N units so that a killed run resumes from the last
// snapshot instead of from zero. Records are opaque byte strings: the
// engine that wrote them (fault campaign, study suite) defines their
// encoding; the container only guarantees integrity and attribution.
//
// Layout (explicit little-endian, like .mtsc):
//
//   offset  size  field
//        0     4  magic "MCKP"
//        4     4  u32 version (1)
//        8     4  u32 engine id (kCkptEngine*)
//       12     4  u32 reserved (0)
//       16     8  u64 config hash — fingerprint of every parameter that
//                 shapes per-unit results; resume refuses a mismatch
//       24     8  u64 record count
//       32     …  records: u32 length, then that many bytes, back to back
//      end-8   8  u64 FNV-1a-64 of every byte before this field
//
// Corruption policy: load_checkpoint() validates magic, version, engine,
// bounds of every record length against the file size, and the trailing
// checksum, and throws memopt::Error naming the offending field — it never
// reads past the buffer or trusts a length it has not bounded.
// load_checkpoint_for_resume() converts any such failure into a one-line
// stderr diagnostic plus nullopt, so a damaged checkpoint degrades to a
// fresh start, never to UB or a crash.
//
// run_checkpointed() is the one driver both engines run on, with or
// without a checkpoint file: units are pure functions of their index, each
// returns its record, and the engine reduces the records of units 0..n-1.
// A resumed run therefore reduces exactly the records an uninterrupted one
// would, which is what makes it bit-identical at any --jobs value.
#pragma once

#include <cstddef>
#include <cstdint>
#include <functional>
#include <optional>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace memopt {

inline constexpr std::uint32_t kCkptVersion = 1;
inline constexpr std::uint32_t kCkptEngineFault = 1;
inline constexpr std::uint32_t kCkptEngineStudy = 2;

/// Total container size cap: a checkpoint larger than this is rejected
/// before any allocation sized from file contents.
inline constexpr std::uint64_t kMaxCheckpointBytes = 1ull << 30;

struct Checkpoint {
    std::uint32_t engine = 0;
    std::uint64_t config_hash = 0;
    std::vector<std::string> records;  ///< one opaque record per completed unit
};

/// Serialize to the layout above. Deterministic: equal inputs, equal bytes.
std::string encode_checkpoint(const Checkpoint& ckpt);

/// Write via atomic_write: the file under `path` is always a complete,
/// checksummed snapshot — a crash mid-save leaves the previous one.
void save_checkpoint(const std::string& path, const Checkpoint& ckpt);

/// Parse and validate; throws memopt::Error on any structural defect.
Checkpoint load_checkpoint(const std::string& path);

/// Resume entry point: missing file → nullopt (silent, normal first run);
/// corrupt file or engine/config mismatch → one-line stderr warning naming
/// the path and reason, then nullopt (fresh-start fallback).
std::optional<Checkpoint> load_checkpoint_for_resume(const std::string& path,
                                                     std::uint32_t engine,
                                                     std::uint64_t config_hash);

/// Builds one record from little-endian fields, in the order written.
class RecordWriter {
public:
    RecordWriter& u32(std::uint32_t v);
    RecordWriter& u64(std::uint64_t v);
    RecordWriter& f64(double v);  ///< the IEEE-754 bit pattern, as u64
    RecordWriter& str(std::string_view s);  ///< u32 length, then the bytes
    std::string take() { return std::move(bytes_); }

private:
    std::string bytes_;
};

/// Reads a record's fields back in the order RecordWriter wrote them.
/// Throws memopt::Error, prefixed with `what`, on a read past the end and
/// (finish()) on bytes left over.
class RecordReader {
public:
    RecordReader(std::string_view record, std::string_view what)
        : record_(record), what_(what) {}
    std::uint32_t u32();
    std::uint64_t u64();
    double f64();
    std::string str();
    void finish() const;

private:
    const char* take(std::size_t n);

    std::string_view record_;
    std::string_view what_;
    std::size_t at_ = 0;
};

/// How run_checkpointed() snapshots, resumes and stops.
struct CheckpointOptions {
    std::string path;        ///< checkpoint file; empty = never snapshot
    bool resume = false;     ///< load a compatible checkpoint at `path` first
    std::size_t every = 16;  ///< snapshot after this many new units (0 acts as 1)
    /// Stop (as if cancelled) after this many new units this run; 0 =
    /// unlimited. Gives deterministic partial runs without timing.
    std::size_t max_units_this_run = 0;
};

/// What a run_checkpointed() call finished with.
struct CheckpointedRun {
    std::vector<std::string> records;  ///< records of units 0..k-1, resumed ones first
    bool completed = false;            ///< every unit has its record
    std::string stop_reason;           ///< why the run stopped early; empty when completed
};

/// Run units 0..units-1 in index order on the parallel runtime (`jobs` as
/// in parallel_for): `run_unit(i)` computes unit i and returns its record.
/// With `options.path` set, the run resumes from a compatible checkpoint
/// (engine and config hash match) when `options.resume`, works in batches
/// of `options.every` units and snapshots the completed prefix after each
/// batch; without a path it runs all units as one batch. A tripped global
/// CancellationToken (checked between batches; a unit that throws
/// CancelledError discards its batch) or an exhausted
/// `max_units_this_run` ends the run early: the prefix is snapshotted and
/// returned with completed == false and the reason, never thrown.
CheckpointedRun run_checkpointed(std::uint32_t engine, std::uint64_t config_hash,
                                 std::size_t units,
                                 const std::function<std::string(std::size_t)>& run_unit,
                                 const CheckpointOptions& options, std::size_t jobs = 0);

}  // namespace memopt
