// Durable-execution layer tests: crash-safe atomic writes, the
// memopt.ckpt.v1 container (including a corruption fuzz suite mirroring
// StreamFuzzTest), campaign and study checkpoint/resume bit-identity, and
// the cooperative watchdog.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <fstream>
#include <initializer_list>
#include <optional>
#include <sstream>
#include <string>
#include <vector>

#include "core/study.hpp"
#include "fault/campaign.hpp"
#include "sim/kernels.hpp"
#include "support/assert.hpp"
#include "support/durable/atomic_file.hpp"
#include "support/durable/cancel.hpp"
#include "support/durable/checkpoint.hpp"
#include "support/rng.hpp"
#include "trace/affinity.hpp"
#include "trace/profile.hpp"
#include "trace/source.hpp"
#include "trace/stream_file.hpp"
#include "trace/synthetic.hpp"
#include "trace/trace.hpp"

namespace memopt {
namespace {

std::string temp_path(const std::string& name) {
    return ::testing::TempDir() + "durable_" + name;
}

std::string slurp(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in.good()) << "cannot read " << path;
    return std::string((std::istreambuf_iterator<char>(in)),
                       std::istreambuf_iterator<char>());
}

bool file_exists(const std::string& path) {
    std::ifstream in(path);
    return in.good();
}

/// Every test leaves the global cancellation token disarmed, whatever it
/// exercised.
class DurableTest : public ::testing::Test {
protected:
    void SetUp() override { CancellationToken::global().reset(); }
    void TearDown() override { CancellationToken::global().reset(); }
};

// ---------------------------------------------------------------------------
// atomic_write / AtomicOstream

TEST_F(DurableTest, AtomicWritePublishesContentsAndCleansUp) {
    const std::string path = temp_path("aw_basic.txt");
    atomic_write(path, std::string("hello durable\n"));
    EXPECT_EQ(slurp(path), "hello durable\n");
    EXPECT_FALSE(file_exists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST_F(DurableTest, AtomicWriteFailureLeavesPreviousArtifactIntact) {
    const std::string path = temp_path("aw_keep.txt");
    atomic_write(path, std::string("version 1\n"));
    EXPECT_THROW(atomic_write(path,
                              [](std::ostream&) -> void {
                                  throw Error("producer exploded mid-write");
                              }),
                 Error);
    EXPECT_EQ(slurp(path), "version 1\n");  // old bytes, not a truncation
    EXPECT_FALSE(file_exists(path + ".tmp"));
    std::remove(path.c_str());
}

TEST_F(DurableTest, AtomicWriteIntoMissingDirectoryReportsTheOpenFailure) {
    const std::string path = temp_path("no_such_dir/aw.txt");
    try {
        atomic_write(path, std::string("never published\n"));
        FAIL() << "atomic_write into a missing directory must throw";
    } catch (const Error& e) {
        EXPECT_EQ(std::string(e.what()), "atomic_write: cannot open temp file: " + path + ".tmp");
    }
    EXPECT_FALSE(file_exists(path + ".tmp"));
    EXPECT_FALSE(file_exists(path));
}

TEST_F(DurableTest, AtomicOstreamCommitAndDiscard) {
    const std::string path = temp_path("aos.txt");
    AtomicOstream os;
    ASSERT_TRUE(os.open_staged(path));
    os << "rows\n";
    EXPECT_FALSE(file_exists(path));  // nothing published before commit
    EXPECT_TRUE(os.commit());
    EXPECT_TRUE(os.commit());  // idempotent
    EXPECT_EQ(slurp(path), "rows\n");
    EXPECT_FALSE(file_exists(path + ".tmp"));

    AtomicOstream drop;
    ASSERT_TRUE(drop.open_staged(path));
    drop << "corrupted half-update";
    drop.discard();
    EXPECT_EQ(slurp(path), "rows\n");  // untouched
    std::remove(path.c_str());
}

TEST_F(DurableTest, AtomicOstreamDestructorAutoCommits) {
    const std::string path = temp_path("aos_dtor.txt");
    {
        AtomicOstream os;
        ASSERT_TRUE(os.open_staged(path));
        os << "published on scope exit\n";
    }
    EXPECT_EQ(slurp(path), "published on scope exit\n");
    std::remove(path.c_str());
}

TEST_F(DurableTest, AtomicOstreamMoveTransfersPublishDuty) {
    const std::string path = temp_path("aos_move.txt");
    {
        AtomicOstream a;
        ASSERT_TRUE(a.open_staged(path));
        a << "moved\n";
        AtomicOstream b(std::move(a));
        // The moved-from shell owns nothing: destroying it must not publish
        // or disturb b's staged bytes.
    }
    EXPECT_EQ(slurp(path), "moved\n");
    std::remove(path.c_str());
}

TEST_F(DurableTest, AtomicOstreamOpenFailureIsReported) {
    AtomicOstream os;
    EXPECT_FALSE(os.open_staged("/no/such/dir/x.json"));
}

// ---------------------------------------------------------------------------
// memopt.ckpt.v1 container

Checkpoint sample_checkpoint() {
    Checkpoint ckpt;
    ckpt.engine = kCkptEngineFault;
    ckpt.config_hash = 0xfeedfacecafebeefULL;
    ckpt.records = {std::string("alpha"), std::string(),  // empty record is legal
                    std::string("\x00\x01\xff\x7f", 4)};
    return ckpt;
}

TEST_F(DurableTest, CheckpointRoundTripsThroughDisk) {
    const std::string path = temp_path("ckpt_rt.bin");
    const Checkpoint ckpt = sample_checkpoint();
    save_checkpoint(path, ckpt);
    const Checkpoint back = load_checkpoint(path);
    EXPECT_EQ(back.engine, ckpt.engine);
    EXPECT_EQ(back.config_hash, ckpt.config_hash);
    EXPECT_EQ(back.records, ckpt.records);
    // Deterministic encoding: equal inputs, equal bytes.
    EXPECT_EQ(encode_checkpoint(ckpt), encode_checkpoint(ckpt));
    std::remove(path.c_str());
}

TEST_F(DurableTest, ResumeMissingFileIsASilentFreshStart) {
    EXPECT_EQ(load_checkpoint_for_resume(temp_path("ckpt_nope.bin"), kCkptEngineFault, 1),
              std::nullopt);
}

TEST_F(DurableTest, ResumeRefusesEngineAndConfigMismatch) {
    const std::string path = temp_path("ckpt_mismatch.bin");
    save_checkpoint(path, sample_checkpoint());
    EXPECT_EQ(load_checkpoint_for_resume(path, kCkptEngineStudy, 0xfeedfacecafebeefULL),
              std::nullopt);
    EXPECT_EQ(load_checkpoint_for_resume(path, kCkptEngineFault, 0xdeadbeefULL),
              std::nullopt);
    EXPECT_TRUE(load_checkpoint_for_resume(path, kCkptEngineFault, 0xfeedfacecafebeefULL)
                    .has_value());
    std::remove(path.c_str());
}

// Mirrors StreamFuzzTest: every truncation and every single-bit flip of a
// valid container must surface as a clean memopt::Error (and a warned
// nullopt from the resume entry point), never UB, a crash, or a silently
// accepted mutant.
TEST_F(DurableTest, CheckpointFuzzEveryTruncationIsRejected) {
    const std::string encoded = encode_checkpoint(sample_checkpoint());
    const std::string path = temp_path("ckpt_trunc.bin");
    for (std::size_t len = 0; len < encoded.size(); ++len) {
        atomic_write(path, encoded.substr(0, len), std::ios::binary);
        EXPECT_THROW(load_checkpoint(path), Error) << "truncated to " << len;
        EXPECT_EQ(load_checkpoint_for_resume(path, kCkptEngineFault,
                                             0xfeedfacecafebeefULL),
                  std::nullopt)
            << "truncated to " << len;
    }
    std::remove(path.c_str());
}

TEST_F(DurableTest, CheckpointFuzzEveryBitFlipIsRejected) {
    const std::string encoded = encode_checkpoint(sample_checkpoint());
    const std::string path = temp_path("ckpt_flip.bin");
    for (std::size_t byte = 0; byte < encoded.size(); ++byte) {
        for (int bit = 0; bit < 8; ++bit) {
            std::string mutant = encoded;
            mutant[byte] = static_cast<char>(mutant[byte] ^ (1 << bit));
            atomic_write(path, mutant, std::ios::binary);
            // Every byte is covered by the trailing checksum (and the
            // checksum bytes themselves must then mismatch), so any
            // single-bit corruption is detectable.
            EXPECT_THROW(load_checkpoint(path), Error)
                << "byte " << byte << " bit " << bit;
        }
    }
    std::remove(path.c_str());
}

TEST_F(DurableTest, CheckpointFuzzRandomMutationsNeverCrash) {
    const std::string encoded = encode_checkpoint(sample_checkpoint());
    const std::string path = temp_path("ckpt_mut.bin");
    Rng rng(2026);
    for (int round = 0; round < 200; ++round) {
        std::string mutant = encoded;
        const int edits = 1 + static_cast<int>(rng.next_u64() % 8);
        for (int e = 0; e < edits; ++e) {
            const std::size_t at = rng.next_u64() % mutant.size();
            mutant[at] = static_cast<char>(rng.next_u64());
        }
        atomic_write(path, mutant, std::ios::binary);
        try {
            const Checkpoint back = load_checkpoint(path);
            // Astronomically unlikely (checksum collision), but if a mutant
            // parses it must at least be structurally coherent.
            EXPECT_LE(back.records.size(), 1u << 20);
        } catch (const Error&) {
            // expected for essentially every mutant
        }
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Campaign checkpoint/resume

FaultCampaignConfig small_campaign_config() {
    FaultCampaignConfig config;
    config.seed = 77;
    config.trials = 24;
    config.bit_flip_rate = 2e-3;
    config.protection = ProtectionScheme::Secded;
    config.codec_tag = "none";
    config.line_bytes = 32;
    return config;
}

std::vector<std::vector<std::uint8_t>> small_corpus() {
    std::vector<std::uint8_t> image(512);
    for (std::size_t i = 0; i < image.size(); ++i) {
        image[i] = static_cast<std::uint8_t>(i * 37 + 11);
    }
    return line_corpus(image, 32);
}

void expect_results_equal(const FaultCampaignResult& a, const FaultCampaignResult& b) {
    EXPECT_EQ(a.lines_evaluated, b.lines_evaluated);
    EXPECT_EQ(a.faults_injected, b.faults_injected);
    EXPECT_EQ(a.corrected, b.corrected);
    EXPECT_EQ(a.detected, b.detected);
    EXPECT_EQ(a.codec_rejects, b.codec_rejects);
    EXPECT_EQ(a.degraded, b.degraded);
    EXPECT_EQ(a.silent, b.silent);
    EXPECT_EQ(a.clean, b.clean);
    EXPECT_EQ(a.energy.total(), b.energy.total());  // bit-exact, not approx
}

TEST_F(DurableTest, TrialRecordRoundTripsAndRejectsWrongSize) {
    FaultTrialStats stats;
    stats.injected = 5;
    stats.corrected = 4;
    stats.detected = 3;
    stats.codec_rejects = 2;
    stats.degraded = 1;
    stats.silent = 7;
    stats.clean = 11;
    const std::string record = encode_trial_record(stats);
    EXPECT_EQ(record.size(), 56u);
    // The on-disk layout: seven little-endian u64 tallies in field order.
    EXPECT_EQ(record.substr(0, 8), std::string("\x05\0\0\0\0\0\0\0", 8));
    EXPECT_EQ(record.substr(48), std::string("\x0b\0\0\0\0\0\0\0", 8));
    const FaultTrialStats back = decode_trial_record(record);
    EXPECT_EQ(back.injected, stats.injected);
    EXPECT_EQ(back.corrected, stats.corrected);
    EXPECT_EQ(back.detected, stats.detected);
    EXPECT_EQ(back.codec_rejects, stats.codec_rejects);
    EXPECT_EQ(back.degraded, stats.degraded);
    EXPECT_EQ(back.silent, stats.silent);
    EXPECT_EQ(back.clean, stats.clean);
    EXPECT_THROW(decode_trial_record(record.substr(0, 55)), Error);
    EXPECT_THROW(decode_trial_record(record + "x"), Error);
}

TEST_F(DurableTest, CampaignConfigHashPinsResultShapingInputs) {
    const auto corpus = small_corpus();
    FaultCampaignConfig a = small_campaign_config();
    const std::uint64_t base = campaign_config_hash(a, corpus, {});
    // Pinned: a changed value orphans every checkpoint already on disk.
    EXPECT_EQ(base, 0x794452fafd5e0f42ULL);

    FaultCampaignConfig b = a;
    b.seed = 78;
    EXPECT_NE(campaign_config_hash(b, corpus, {}), base);
    FaultCampaignConfig c = a;
    c.codec_tag = "diff";
    EXPECT_NE(campaign_config_hash(c, corpus, {}), base);
    auto corpus2 = corpus;
    corpus2[0][0] ^= 1;
    EXPECT_NE(campaign_config_hash(a, corpus2, {}), base);
    const std::vector<double> probs(corpus.size(), 1e-3);
    EXPECT_NE(campaign_config_hash(a, corpus, probs), base);
}

TEST_F(DurableTest, CampaignResumesBitIdenticallyAtAnyJobs) {
    const auto corpus = small_corpus();
    for (const std::size_t jobs : {std::size_t{1}, std::size_t{8}}) {
        FaultCampaignConfig config = small_campaign_config();
        config.jobs = jobs;
        const FaultCampaignResult reference = run_campaign(config, corpus).result;

        const std::string path =
            temp_path("campaign_j" + std::to_string(jobs) + ".ckpt");
        std::remove(path.c_str());

        CheckpointOptions first;
        first.path = path;
        first.every = 4;
        first.max_units_this_run = 10;  // deterministic "interruption"
        const CampaignOutcome partial = run_campaign(config, corpus, {}, first);
        EXPECT_FALSE(partial.completed);
        EXPECT_EQ(partial.trials_done, 10u);
        EXPECT_EQ(partial.trials_total, config.trials);
        EXPECT_FALSE(partial.stop_reason.empty());

        CheckpointOptions second;
        second.path = path;
        second.resume = true;
        second.every = 4;
        const CampaignOutcome resumed = run_campaign(config, corpus, {}, second);
        ASSERT_TRUE(resumed.completed);
        EXPECT_EQ(resumed.trials_done, config.trials);
        expect_results_equal(resumed.result, reference);
        std::remove(path.c_str());
    }
}

TEST_F(DurableTest, CampaignResumeIgnoresIncompatibleCheckpoint) {
    const auto corpus = small_corpus();
    FaultCampaignConfig config = small_campaign_config();
    const FaultCampaignResult reference = run_campaign(config, corpus).result;

    const std::string path = temp_path("campaign_stale.ckpt");
    FaultCampaignConfig other = config;
    other.seed = 12345;
    CheckpointOptions stale;
    stale.path = path;
    stale.max_units_this_run = 6;
    (void)run_campaign(other, corpus, {}, stale);

    // Resume under the real config: the stale checkpoint's hash mismatches,
    // so the run restarts from zero and still converges on the reference.
    CheckpointOptions resume;
    resume.path = path;
    resume.resume = true;
    const CampaignOutcome outcome = run_campaign(config, corpus, {}, resume);
    ASSERT_TRUE(outcome.completed);
    expect_results_equal(outcome.result, reference);
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Study checkpoint/resume

TEST_F(DurableTest, StudyRecordRoundTripsAndRejectsMalformed) {
    StudyOutcome outcome;
    outcome.name = "fir";
    outcome.json = "{\n  \"x\": 1\n}";
    outcome.clustering_savings_pct = 12.5;
    outcome.compression_savings_pct = -3.25;
    outcome.encoding_reduction_pct = 40.0;
    const std::string record = encode_study_record(outcome);
    // The on-disk layout: u32 name length, name, three f64 bit patterns
    // (12.5 is 0x4029000000000000), u32 JSON length, JSON.
    EXPECT_EQ(record.substr(0, 15), std::string("\x03\0\0\0fir\0\0\0\0\0\0\x29\x40", 15));
    EXPECT_EQ(record.size(), 4 + 3 + 3 * 8 + 4 + outcome.json.size());
    const StudyOutcome back = decode_study_record(record);
    EXPECT_EQ(back.name, outcome.name);
    EXPECT_EQ(back.json, outcome.json);
    EXPECT_EQ(back.clustering_savings_pct, outcome.clustering_savings_pct);
    EXPECT_EQ(back.compression_savings_pct, outcome.compression_savings_pct);
    EXPECT_EQ(back.encoding_reduction_pct, outcome.encoding_reduction_pct);
    EXPECT_THROW(decode_study_record(record.substr(0, record.size() - 1)), Error);
    EXPECT_THROW(decode_study_record(record + "y"), Error);
    EXPECT_THROW(decode_study_record(""), Error);
}

std::vector<Kernel> two_study_kernels() {
    const std::vector<Kernel> suite = kernel_suite();
    return {suite.begin(), suite.begin() + 2};
}

TEST_F(DurableTest, StudySuiteResumesByteIdentically) {
    const std::vector<Kernel> kernels = two_study_kernels();
    const std::vector<StudyOutcome> reference = study_suite(kernels).outcomes;
    ASSERT_EQ(reference.size(), 2u);

    const std::string path = temp_path("study.ckpt");
    std::remove(path.c_str());
    CheckpointOptions first;
    first.path = path;
    first.every = 1;
    first.max_units_this_run = 1;
    const StudySuiteOutcome partial = study_suite(kernels, 0, first);
    EXPECT_FALSE(partial.completed);
    EXPECT_EQ(partial.outcomes.size(), 1u);
    EXPECT_FALSE(partial.stop_reason.empty());
    // Pinned: a changed fingerprint orphans every checkpoint already on disk.
    EXPECT_EQ(load_checkpoint(path).config_hash, 0x062e455b2803111fULL);

    CheckpointOptions second;
    second.path = path;
    second.resume = true;
    second.every = 1;
    const StudySuiteOutcome resumed = study_suite(kernels, 0, second);
    ASSERT_TRUE(resumed.completed);
    ASSERT_EQ(resumed.outcomes.size(), reference.size());
    for (std::size_t i = 0; i < reference.size(); ++i) {
        // The resumed kernel's recorded JSON (written before the interrupt)
        // must match a fresh render byte for byte — the property that lets
        // the CLI splice checkpointed kernels into --json envelopes.
        EXPECT_EQ(resumed.outcomes[i].json, reference[i].json) << i;
        EXPECT_EQ(resumed.outcomes[i].name, reference[i].name);
    }
    std::remove(path.c_str());
}

// ---------------------------------------------------------------------------
// Cooperative watchdog

TEST_F(DurableTest, DeadlineZeroTripsAtTheFirstCheck) {
    CancellationToken token;
    token.set_deadline_sec(0.0);
    EXPECT_TRUE(token.triggered());
    EXPECT_THROW(token.check(), CancelledError);
    EXPECT_NE(token.reason().find("deadline"), std::string::npos);
}

TEST_F(DurableTest, RequestLatchesReasonAndResetDisarms) {
    CancellationToken token;
    EXPECT_FALSE(token.triggered());
    token.request("operator asked");
    EXPECT_TRUE(token.triggered());
    EXPECT_EQ(token.reason(), "operator asked");
    token.request("second reason ignored");
    EXPECT_EQ(token.reason(), "operator asked");  // first trip wins
    token.reset();
    EXPECT_FALSE(token.triggered());
    EXPECT_EQ(token.reason(), "");
    EXPECT_NO_THROW(token.check());
}

TEST_F(DurableTest, NegativeDeadlineDisarms) {
    CancellationToken token;
    token.set_deadline_sec(0.0);
    EXPECT_TRUE(token.triggered());
    token.reset();
    token.set_deadline_sec(-1.0);
    EXPECT_FALSE(token.triggered());
}

TEST_F(DurableTest, TrippedTokenCancelsACampaign) {
    CancellationToken::global().request("test trip");
    const auto corpus = small_corpus();
    const FaultCampaignConfig config = small_campaign_config();

    // The driver converts the trip into a graceful partial outcome instead
    // of throwing.
    const CampaignOutcome outcome = run_campaign(config, corpus);
    EXPECT_FALSE(outcome.completed);
    EXPECT_EQ(outcome.trials_done, 0u);
    EXPECT_EQ(outcome.stop_reason, "test trip");
}

TEST_F(DurableTest, TrippedTokenCancelsAStudySuite) {
    CancellationToken::global().request("test trip");
    const StudySuiteOutcome outcome = study_suite(two_study_kernels());
    EXPECT_FALSE(outcome.completed);
    EXPECT_TRUE(outcome.outcomes.empty());
    EXPECT_EQ(outcome.total, 2u);
    EXPECT_EQ(outcome.stop_reason, "test trip");
}

/// 200000 hotspot accesses: enough for stream_accumulate to shard the
/// replay over 4 tasks.
SyntheticSpec cancel_spec() {
    SyntheticSpec spec;
    spec.kind = SyntheticKind::Hotspot;
    spec.base.num_accesses = 200000;
    return spec;
}

TEST_F(DurableTest, TrippedTokenCancelsStreamReplay) {
    // Every concrete source polls the token at the top of next(), so a
    // tripped token stops the sharded replays over each of them at any job
    // count, and an untripped one lets them run to the end.
    const SyntheticSpec spec = cancel_spec();
    const std::string path = temp_path("cancel.mtsc");
    {
        SyntheticSource writer_input(spec, 4096);
        write_trace_stream(path, writer_input);
    }
    const MemTrace trace = materialize_synthetic(spec);
    MaterializedSource materialized(trace, 4096);
    SyntheticSource synthetic(spec, 4096);
    MmapBinarySource mapped(path);
    const BlockProfile profile = BlockProfile::from_source(materialized, 256);
    for (TraceSource* source : std::initializer_list<TraceSource*>{&materialized, &synthetic,
                                                                    &mapped}) {
        TraceChunk chunk;
        CancellationToken::global().request("stop replay");
        EXPECT_THROW(source->next(chunk), CancelledError);
        for (const std::size_t jobs : {1, 4}) {
            CancellationToken::global().request("stop replay");
            EXPECT_THROW(BlockProfile::from_source(*source, 256, jobs), CancelledError);
            EXPECT_THROW(windowed_affinity(*source, profile, 8, jobs), CancelledError);
            CancellationToken::global().reset();
            EXPECT_EQ(BlockProfile::from_source(*source, 256, jobs).total_accesses(),
                      spec.base.num_accesses);
        }
    }
    std::remove(path.c_str());
}

/// A stable source over an in-memory trace whose next() never polls the
/// token. Its batches come from the base class's next_batch(), which only
/// calls next(), so only stream_accumulate's tasks can notice a trip.
class NonPollingSource final : public TraceSource {
public:
    explicit NonPollingSource(const MemTrace& trace) : trace_(trace) {
        set_summary(trace.summary());
    }

    std::uint64_t size() const override { return trace_.size(); }
    bool stable_chunks() const override { return true; }
    void reset() override { pos_ = 0; }

    bool next(TraceChunk& chunk) override {
        if (pos_ >= trace_.size()) {
            chunk = TraceChunk{};
            return false;
        }
        const std::size_t n = std::min<std::size_t>(4096, trace_.size() - pos_);
        chunk = trace_.view().subchunk(pos_, n);
        pos_ += n;
        return true;
    }

private:
    const MemTrace& trace_;
    std::size_t pos_ = 0;
};

TEST_F(DurableTest, StreamReplayTasksPollTheToken) {
    // The source hands out each batch without a poll before the tasks map
    // it; the tasks' own per-chunk check is what stops the replay.
    const MemTrace trace = materialize_synthetic(cancel_spec());
    NonPollingSource source(trace);
    const BlockProfile profile = BlockProfile::from_source(source, 256);
    for (const std::size_t jobs : {1, 4}) {
        CancellationToken::global().request("stop replay");
        EXPECT_THROW(BlockProfile::from_source(source, 256, jobs), CancelledError);
        EXPECT_THROW(windowed_affinity(source, profile, 8, jobs), CancelledError);
        CancellationToken::global().reset();
        EXPECT_EQ(windowed_affinity(source, profile, 8, jobs).total(),
                  windowed_affinity(source, profile, 8, 1).total());
    }
}

}  // namespace
}  // namespace memopt
