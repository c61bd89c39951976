#include "fault/campaign.hpp"

#include <algorithm>

#include "fault/inject.hpp"
#include "support/assert.hpp"
#include "support/bytes.hpp"
#include "support/durable/cancel.hpp"
#include "support/json.hpp"
#include "support/metrics.hpp"

namespace memopt {

double FaultCampaignResult::residual_corruption_rate() const {
    return lines_evaluated == 0
               ? 0.0
               : static_cast<double>(silent) / static_cast<double>(lines_evaluated);
}

double FaultCampaignResult::degraded_rate() const {
    return lines_evaluated == 0
               ? 0.0
               : static_cast<double>(degraded) / static_cast<double>(lines_evaluated);
}

double FaultCampaignResult::energy_overhead() const {
    const double base = energy.component("sram_access");
    return base <= 0.0
               ? 0.0
               : (energy.component("protection") + energy.component("refetch")) / base;
}

void to_json(JsonWriter& w, const FaultCampaignResult& result) {
    w.begin_object();
    w.member("lines_evaluated", result.lines_evaluated);
    w.member("faults_injected", result.faults_injected);
    w.member("corrected", result.corrected);
    w.member("detected", result.detected);
    w.member("codec_rejects", result.codec_rejects);
    w.member("degraded", result.degraded);
    w.member("silent", result.silent);
    w.member("clean", result.clean);
    w.member("residual_corruption_rate", result.residual_corruption_rate());
    w.member("degraded_rate", result.degraded_rate());
    w.member("energy_overhead", result.energy_overhead());
    w.key("energy");
    result.energy.to_json(w);
    w.end_object();
}

std::vector<std::vector<std::uint8_t>> line_corpus(std::span<const std::uint8_t> image,
                                                   unsigned line_bytes) {
    require(!image.empty(), "line_corpus: empty image");
    require(line_bytes > 0 && line_bytes % 4 == 0,
            "line_corpus: line size must be a positive multiple of 4");
    const std::size_t num_lines = (image.size() + line_bytes - 1) / line_bytes;
    std::vector<std::vector<std::uint8_t>> corpus(num_lines);
    for (std::size_t i = 0; i < num_lines; ++i) {
        corpus[i].assign(line_bytes, 0);
        const std::size_t begin = i * line_bytes;
        const std::size_t count = std::min<std::size_t>(line_bytes, image.size() - begin);
        std::copy_n(image.begin() + static_cast<std::ptrdiff_t>(begin), count,
                    corpus[i].begin());
    }
    return corpus;
}

std::vector<double> sleepy_line_probabilities(const MemoryArchitecture& arch,
                                              const AddressMap& map,
                                              const std::vector<BankActivity>& activity,
                                              double base_rate, double drowsy_factor,
                                              std::uint64_t image_base, std::size_t num_lines,
                                              unsigned line_bytes, std::uint64_t total_cycles) {
    require(activity.size() == arch.num_banks(),
            "sleepy_line_probabilities: bank activity does not match architecture");
    const std::uint64_t mapped_span =
        map.block_size() * static_cast<std::uint64_t>(map.num_blocks());
    std::vector<double> probs(num_lines);
    for (std::size_t i = 0; i < num_lines; ++i) {
        const std::uint64_t addr = image_base + static_cast<std::uint64_t>(i) * line_bytes;
        std::uint64_t asleep = 0;
        if (addr < mapped_span) {
            const std::uint64_t phys = map.map_addr(addr);
            const std::size_t block = static_cast<std::size_t>(phys / arch.block_size());
            if (block < arch.num_blocks())
                asleep = activity[arch.bank_of_block(block)].gated_cycles;
        }
        probs[i] = sleepy_flip_probability(base_rate, asleep, total_cycles, drowsy_factor);
    }
    return probs;
}

namespace {

/// The SRAM cut whose access energy the campaign charges per stored word.
constexpr std::uint64_t kSramBankBytes = 4096;

/// Precondition checks of run_campaign.
void validate_campaign(const FaultCampaignConfig& config,
                       std::span<const std::vector<std::uint8_t>> corpus,
                       std::span<const double> line_flip_prob) {
    require(!corpus.empty(), "run_campaign: empty corpus");
    require(config.trials > 0, "run_campaign: need at least one trial");
    require(config.line_bytes > 0 && config.line_bytes % 4 == 0,
            "run_campaign: line size must be a positive multiple of 4");
    require(line_flip_prob.empty() || line_flip_prob.size() == corpus.size(),
            "run_campaign: per-line probabilities must match the corpus");
    for (const std::vector<std::uint8_t>& line : corpus)
        require(line.size() == config.line_bytes, "run_campaign: corpus line size mismatch");
}

/// The stored representation of every line is trial-invariant: encode once,
/// outside the Monte-Carlo loop.
std::vector<std::vector<std::uint8_t>> encode_stored(
    const FaultCampaignConfig& config, std::span<const std::vector<std::uint8_t>> corpus) {
    std::vector<std::vector<std::uint8_t>> stored(corpus.size());
    for (std::size_t i = 0; i < corpus.size(); ++i)
        stored[i] = config.codec != nullptr ? config.codec->encode(corpus[i]).bytes()
                                            : corpus[i];
    return stored;
}

/// One Monte-Carlo trial — a pure function of (config, corpus, trial), the
/// invariant the checkpoint format relies on.
FaultTrialStats run_one_trial(const FaultCampaignConfig& config,
                              std::span<const std::vector<std::uint8_t>> corpus,
                              std::span<const std::vector<std::uint8_t>> stored,
                              std::span<const double> line_flip_prob,
                              const FaultInjector& injector, std::size_t trial) {
    CancellationToken::global().check();
    Rng rng = injector.stream_rng(trial);
    FaultTrialStats s;
    for (std::size_t i = 0; i < corpus.size(); ++i) {
        const double p = line_flip_prob.empty() ? config.bit_flip_rate : line_flip_prob[i];
        ProtectedBuffer buffer(stored[i], config.protection);
        s.injected += FaultInjector::flip_bits(buffer, p, rng);
        const ProtectedBuffer::ScrubResult scrub = buffer.scrub();
        s.corrected += scrub.corrected_words;
        s.detected += scrub.detected_words;
        bool degraded = scrub.detected_words > 0;
        if (!degraded) {
            const std::vector<std::uint8_t> bytes = buffer.bytes();
            if (config.codec != nullptr) {
                try {
                    const std::vector<std::uint8_t> decoded =
                        config.codec->decode(bytes, config.line_bytes);
                    if (decoded == corpus[i]) ++s.clean;
                    else ++s.silent;
                } catch (const Error&) {
                    // Codec-reported corruption: degrade, don't crash.
                    ++s.codec_rejects;
                    degraded = true;
                }
            } else {
                if (bytes == corpus[i]) ++s.clean;
                else ++s.silent;
            }
        }
        if (degraded) ++s.degraded;
    }
    return s;
}

/// Fold per-trial tallies (in trial order) into the campaign result and
/// derive the energy breakdown from the integer counters. A resumed run
/// ends here with the identical trial sequence, which is what makes it
/// bit-identical to an uninterrupted one.
FaultCampaignResult reduce_trials(const FaultCampaignConfig& config, std::size_t corpus_size,
                                  std::span<const std::vector<std::uint8_t>> stored,
                                  std::span<const FaultTrialStats> trials) {
    FaultCampaignResult result;
    for (const FaultTrialStats& s : trials) {
        result.faults_injected += s.injected;
        result.corrected += s.corrected;
        result.detected += s.detected;
        result.codec_rejects += s.codec_rejects;
        result.degraded += s.degraded;
        result.silent += s.silent;
        result.clean += s.clean;
    }
    result.lines_evaluated =
        static_cast<std::uint64_t>(trials.size()) * static_cast<std::uint64_t>(corpus_size);

    // Energy, from the integer tallies only — reduction order cannot
    // perturb it. Access cost is charged per stored 64-bit word; the
    // protection component is the delta of the protected array plus the
    // encode/check logic; degraded lines pay a full-line DRAM re-fetch.
    std::uint64_t stored_words = 0;
    for (const std::vector<std::uint8_t>& blob : stored) stored_words += (blob.size() + 7) / 8;
    const double accesses_per_trial = static_cast<double>(stored_words);
    const double total_accesses = accesses_per_trial * static_cast<double>(trials.size());
    const SramEnergyModel base_model(kSramBankBytes, 64);
    const SramEnergyModel prot_model(kSramBankBytes, 64, config.protection);
    result.energy.add("sram_access", base_model.read_energy() * total_accesses);
    if (config.protection != ProtectionScheme::None) {
        const double per_word = (prot_model.read_energy() - base_model.read_energy()) +
                                protection_access_energy(config.protection, 64);
        result.energy.add("protection", per_word * total_accesses);
    }
    const DramEnergyModel dram(config.dram);
    result.energy.add("refetch", dram.burst_energy(config.line_bytes) *
                                     static_cast<double>(result.degraded));

    // Observability tallies (never fed back into results).
    MetricsRegistry& metrics = MetricsRegistry::instance();
    metrics.counter("fault.injected").add(result.faults_injected);
    metrics.counter("fault.corrected").add(result.corrected);
    metrics.counter("fault.uncorrected").add(result.detected);
    metrics.counter("fault.degraded").add(result.degraded);
    metrics.counter("fault.silent").add(result.silent);
    return result;
}

}  // namespace

std::string encode_trial_record(const FaultTrialStats& stats) {
    return RecordWriter()
        .u64(stats.injected)
        .u64(stats.corrected)
        .u64(stats.detected)
        .u64(stats.codec_rejects)
        .u64(stats.degraded)
        .u64(stats.silent)
        .u64(stats.clean)
        .take();
}

FaultTrialStats decode_trial_record(std::string_view record) {
    require(record.size() == 56, "campaign checkpoint: bad trial record size");
    RecordReader in(record, "campaign checkpoint");
    FaultTrialStats s;
    s.injected = in.u64();
    s.corrected = in.u64();
    s.detected = in.u64();
    s.codec_rejects = in.u64();
    s.degraded = in.u64();
    s.silent = in.u64();
    s.clean = in.u64();
    return s;
}

std::uint64_t campaign_config_hash(const FaultCampaignConfig& config,
                                   std::span<const std::vector<std::uint8_t>> corpus,
                                   std::span<const double> line_flip_prob) {
    Fnv1a64 hash;
    hash.u64(config.seed);
    hash.u64(config.trials);
    hash.f64(config.bit_flip_rate);
    hash.u64(static_cast<std::uint64_t>(config.protection));
    hash.u64(config.codec_tag.size());
    hash.bytes(config.codec_tag);
    hash.u64(config.line_bytes);
    hash.u64(corpus.size());
    for (const std::vector<std::uint8_t>& line : corpus) {
        hash.u64(line.size());
        hash.bytes(line);
    }
    hash.u64(line_flip_prob.size());
    for (const double p : line_flip_prob) hash.f64(p);
    return hash.value();
}

CampaignOutcome run_campaign(const FaultCampaignConfig& config,
                             std::span<const std::vector<std::uint8_t>> corpus,
                             std::span<const double> line_flip_prob,
                             const CheckpointOptions& checkpoint) {
    validate_campaign(config, corpus, line_flip_prob);
    const std::vector<std::vector<std::uint8_t>> stored = encode_stored(config, corpus);
    const FaultInjector injector(config.seed);
    const CheckpointedRun run = run_checkpointed(
        kCkptEngineFault, campaign_config_hash(config, corpus, line_flip_prob), config.trials,
        [&](std::size_t trial) {
            return encode_trial_record(
                run_one_trial(config, corpus, stored, line_flip_prob, injector, trial));
        },
        checkpoint, config.jobs);

    std::vector<FaultTrialStats> trials;
    trials.reserve(run.records.size());
    for (const std::string& record : run.records) trials.push_back(decode_trial_record(record));
    CampaignOutcome out;
    out.trials_done = trials.size();
    out.trials_total = config.trials;
    out.completed = run.completed;
    out.stop_reason = run.stop_reason;
    if (run.completed) out.result = reduce_trials(config, corpus.size(), stored, trials);
    return out;
}

}  // namespace memopt
