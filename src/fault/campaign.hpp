// Monte-Carlo fault-injection campaigns.
//
// A campaign replays many independent fault trials over a corpus of memory
// lines (a kernel's data image, optionally stored compressed), applies the
// configured protection scheme, and tallies what reaches the consumer:
// corrected, detected-and-degraded (modeled re-fetch), or silent
// corruption. Trials run on the shared thread pool (support/parallel) with
// one deterministic injector sub-stream per trial, so results are
// bit-identical at any --jobs value. Energy accounting separates the base
// SRAM access cost from the incremental cost of protection (check-bit
// storage + encode/check logic) and the re-fetch penalty of degraded
// lines, so studies report the true price of protecting drowsy banks.
// A drowsy bank's residency is the gated_cycles of the hybrid flow's
// bank-activity replay (partition/hybrid.hpp); sleepy_line_probabilities
// turns it into per-line flip rates.
#pragma once

#include <cstdint>
#include <span>
#include <string>
#include <string_view>
#include <vector>

#include "cluster/address_map.hpp"
#include "compress/codec.hpp"
#include "energy/report.hpp"
#include "energy/sram_model.hpp"
#include "partition/bank.hpp"
#include "partition/hybrid.hpp"
#include "support/durable/checkpoint.hpp"

namespace memopt {

class JsonWriter;

/// Campaign configuration.
struct FaultCampaignConfig {
    std::uint64_t seed = 1;          ///< injector seed (campaigns are pure functions of it)
    std::size_t trials = 64;         ///< Monte-Carlo trials
    double bit_flip_rate = 1e-4;     ///< per stored bit, per trial (uniform default)
    ProtectionScheme protection = ProtectionScheme::None;
    const LineCodec* codec = nullptr;  ///< when set, lines are stored compressed
    std::string codec_tag;             ///< names the codec in the checkpoint config hash
    unsigned line_bytes = 32;          ///< corpus line size (multiple of 4)
    std::size_t jobs = 0;              ///< parallelism; 0 = default_jobs()
};

/// Aggregate outcome of a campaign.
struct FaultCampaignResult {
    std::uint64_t lines_evaluated = 0;  ///< trials x corpus lines
    std::uint64_t faults_injected = 0;  ///< stored bits flipped
    std::uint64_t corrected = 0;        ///< words repaired by SECDED
    std::uint64_t detected = 0;         ///< words flagged uncorrectable
    std::uint64_t codec_rejects = 0;    ///< decodes that threw memopt::Error
    std::uint64_t degraded = 0;         ///< lines degraded to a modeled re-fetch
    std::uint64_t silent = 0;           ///< lines delivering undetected corruption
    std::uint64_t clean = 0;            ///< lines delivered intact
    EnergyBreakdown energy;  ///< "sram_access", "protection", "refetch"

    /// Fraction of delivered lines that were silently corrupt.
    double residual_corruption_rate() const;
    /// Fraction of lines that fell back to the re-fetch path.
    double degraded_rate() const;
    /// Energy overhead of protection + degradation relative to base access
    /// cost [fraction; 0 when the campaign evaluated nothing].
    double energy_overhead() const;
};

/// Serialize the "memopt.fault.v1" results object: counters, rates, energy.
void to_json(JsonWriter& w, const FaultCampaignResult& result);

/// Slice `image` into `line_bytes`-sized lines (zero-padded at the tail).
/// Throws memopt::Error on an empty image or a line size that is not a
/// positive multiple of 4.
std::vector<std::vector<std::uint8_t>> line_corpus(std::span<const std::uint8_t> image,
                                                   unsigned line_bytes);

/// Per-line flip probabilities scaled by drowsy-bank residency: each line's
/// bank (under `map` and `arch`) contributes the gated_cycles of its
/// `activity` entry (replay_bank_activity(), partition/hybrid.hpp) via
/// sleepy_flip_probability(). Lines beyond the mapped span fall back to the
/// nominal `base_rate`. `total_cycles` is the run length the residency is
/// a fraction of. Throws memopt::Error when `activity` does not have one
/// entry per bank of `arch`.
std::vector<double> sleepy_line_probabilities(const MemoryArchitecture& arch,
                                              const AddressMap& map,
                                              const std::vector<BankActivity>& activity,
                                              double base_rate, double drowsy_factor,
                                              std::uint64_t image_base, std::size_t num_lines,
                                              unsigned line_bytes, std::uint64_t total_cycles);

/// Outcome of a campaign run: the result once every trial is done, else
/// how far it got and why it stopped.
struct CampaignOutcome {
    FaultCampaignResult result;   ///< valid only when completed
    std::size_t trials_done = 0;  ///< completed trials (including resumed ones)
    std::size_t trials_total = 0;
    bool completed = false;
    std::string stop_reason;      ///< why the run stopped early; empty when completed
};

/// Run the campaign over `corpus`. `line_flip_prob`, when non-empty, gives
/// the per-line per-bit flip probability (same length as the corpus; see
/// sleepy_line_probabilities); otherwise config.bit_flip_rate applies
/// uniformly. Deterministic for a given (config, corpus): bit-identical
/// counters and energy at any jobs value, and after any resume.
///
/// Trials are pure functions of (config, corpus, trial index), so the unit
/// of durable progress is one trial's integer tallies: the trials run on
/// run_checkpointed() (engine kCkptEngineFault, config hash
/// campaign_config_hash) and reduce in trial order. With
/// `checkpoint.path` set, the completed prefix is snapshotted every
/// `checkpoint.every` trials and `checkpoint.resume` continues from it. A
/// deadline, signal or exhausted `max_units_this_run` returns completed ==
/// false with the prefix intact instead of throwing; the caller emits the
/// partial report and exits with the documented code.
CampaignOutcome run_campaign(const FaultCampaignConfig& config,
                             std::span<const std::vector<std::uint8_t>> corpus,
                             std::span<const double> line_flip_prob = {},
                             const CheckpointOptions& checkpoint = {});

/// One trial's tallies — the checkpoint record payload.
struct FaultTrialStats {
    std::uint64_t injected = 0;
    std::uint64_t corrected = 0;
    std::uint64_t detected = 0;
    std::uint64_t codec_rejects = 0;
    std::uint64_t degraded = 0;
    std::uint64_t silent = 0;
    std::uint64_t clean = 0;
};

/// Fixed 56-byte little-endian record (7 u64 tallies; the trial index is
/// implicit in the record's position — records form a prefix of the trial
/// sequence by construction).
std::string encode_trial_record(const FaultTrialStats& stats);
/// Throws memopt::Error when the record size is wrong.
FaultTrialStats decode_trial_record(std::string_view record);

/// Fingerprint of everything that shapes per-trial tallies: seed, trials,
/// flip rate, protection, codec tag, line size, corpus bytes, and the
/// per-line probability vector. Resume refuses a checkpoint whose hash
/// differs (the recorded trials would not be prefixes of this campaign).
std::uint64_t campaign_config_hash(const FaultCampaignConfig& config,
                                   std::span<const std::vector<std::uint8_t>> corpus,
                                   std::span<const double> line_flip_prob);

}  // namespace memopt
