#include "sched/model.hpp"

#include "support/assert.hpp"
#include "support/string_util.hpp"

namespace memopt {

std::string mem_level_name(MemLevel level) {
    switch (level) {
        case MemLevel::L1: return "L1";
        case MemLevel::L2: return "L2";
        case MemLevel::Ext: return "ext";
    }
    MEMOPT_ASSERT_MSG(false, "invalid MemLevel");
    return "?";
}

void Application::validate() const {
    require(!datasets.empty(), "Application: no data sets");
    require(!phases.empty(), "Application: no phases");
    require(num_contexts >= 1, "Application: num_contexts must be >= 1");
    for (const DataSet& ds : datasets)
        require(ds.bytes > 0 && ds.bytes % 4 == 0, "Application: data set size must be a "
                                                   "positive multiple of 4");
    for (const KernelPhase& phase : phases) {
        require(phase.context < num_contexts, "Application: phase context out of range");
        for (const KernelUse& use : phase.uses) {
            require(use.dataset < datasets.size(), "Application: use references unknown data set");
            require(use.accesses > 0, "Application: zero-access use");
        }
    }
}

namespace {

// Per-32-bit-access energies of the three levels [pJ].
constexpr double kL1AccessPj = 4.0;
constexpr double kL2AccessPj = 14.0;
constexpr double kExtAccessPj = 130.0;

// Shape of a generated application.
constexpr std::size_t kGenDatasets = 6;
constexpr std::size_t kGenPhases = 8;
constexpr std::size_t kGenContexts = 4;
constexpr std::int64_t kGenMinBytes = 512;
constexpr std::int64_t kGenMaxBytes = 8 * 1024;
constexpr std::int64_t kGenMinAccesses = 2'000;
constexpr std::int64_t kGenMaxAccesses = 60'000;

}  // namespace

double access_pj(MemLevel level) {
    switch (level) {
        case MemLevel::L1: return kL1AccessPj;
        case MemLevel::L2: return kL2AccessPj;
        case MemLevel::Ext: return kExtAccessPj;
    }
    MEMOPT_ASSERT_MSG(false, "invalid MemLevel");
    return 0.0;
}

double move_pj(MemLevel from, MemLevel to, std::uint64_t bytes) {
    if (from == to) return 0.0;
    const double words = static_cast<double>(bytes) / 4.0;
    return words * (access_pj(from) + access_pj(to));
}

Application generate_application(std::uint64_t seed) {
    Rng rng(seed);
    Application app;
    app.name = "synthetic-media";
    app.num_contexts = kGenContexts;

    for (std::size_t d = 0; d < kGenDatasets; ++d) {
        const auto words =
            static_cast<std::uint64_t>(rng.next_in(kGenMinBytes / 4, kGenMaxBytes / 4));
        app.datasets.push_back(DataSet{format("buf%zu", d), words * 4});
    }

    for (std::size_t p = 0; p < kGenPhases; ++p) {
        KernelPhase phase;
        phase.name = format("kernel%zu", p);
        // Pipelines revisit a few contexts: pick with a skew so that some
        // contexts repeat (that is what makes context scheduling matter).
        phase.context = static_cast<std::size_t>(rng.next_zipf_like(kGenContexts, 0.4));
        // Each phase touches 1..4 data sets: typically its input, its
        // output and shared coefficient tables.
        const std::size_t num_uses = 1 + static_cast<std::size_t>(rng.next_below(4));
        std::vector<std::size_t> chosen;
        while (chosen.size() < num_uses) {
            const auto ds = static_cast<std::size_t>(rng.next_below(kGenDatasets));
            bool dup = false;
            for (std::size_t c : chosen) dup = dup || c == ds;
            if (!dup) chosen.push_back(ds);
        }
        for (std::size_t ds : chosen) {
            const auto accesses =
                static_cast<std::uint64_t>(rng.next_in(kGenMinAccesses, kGenMaxAccesses));
            phase.uses.push_back(KernelUse{ds, accesses});
        }
        app.phases.push_back(std::move(phase));
    }
    app.validate();
    return app;
}

}  // namespace memopt
