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

double ReconfArch::access_pj(MemLevel level) const {
    switch (level) {
        case MemLevel::L1: return l1_access_pj;
        case MemLevel::L2: return l2_access_pj;
        case MemLevel::Ext: return ext_access_pj;
    }
    MEMOPT_ASSERT_MSG(false, "invalid MemLevel");
    return 0.0;
}

double ReconfArch::move_pj(MemLevel from, MemLevel to, std::uint64_t bytes) const {
    if (from == to) return 0.0;
    const double words = static_cast<double>(bytes) / 4.0;
    return words * (access_pj(from) + access_pj(to));
}

Application generate_application(const AppGenParams& params) {
    require(params.num_datasets >= 1 && params.num_phases >= 1,
            "AppGenParams: need at least one data set and one phase");
    require(params.min_bytes >= 4 && params.min_bytes <= params.max_bytes,
            "AppGenParams: invalid size range");
    require(params.min_accesses >= 1 && params.min_accesses <= params.max_accesses,
            "AppGenParams: invalid access range");
    Rng rng(params.seed);
    Application app;
    app.name = "synthetic-media";
    app.num_contexts = params.num_contexts;

    for (std::size_t d = 0; d < params.num_datasets; ++d) {
        const auto bytes = static_cast<std::uint64_t>(
            rng.next_in(static_cast<std::int64_t>(params.min_bytes / 4),
                        static_cast<std::int64_t>(params.max_bytes / 4)));
        app.datasets.push_back(DataSet{format("buf%zu", d), bytes * 4});
    }

    for (std::size_t p = 0; p < params.num_phases; ++p) {
        KernelPhase phase;
        phase.name = format("kernel%zu", p);
        // Pipelines revisit a few contexts: pick with a skew so that some
        // contexts repeat (that is what makes context scheduling matter).
        phase.context = static_cast<std::size_t>(
            rng.next_zipf_like(params.num_contexts, 0.4));
        // Each phase touches 1..min(4, D) data sets: typically its input,
        // its output and shared coefficient tables.
        const std::size_t max_uses = std::min<std::size_t>(4, params.num_datasets);
        const std::size_t num_uses = 1 + static_cast<std::size_t>(rng.next_below(max_uses));
        std::vector<std::size_t> chosen;
        while (chosen.size() < num_uses) {
            const auto ds = static_cast<std::size_t>(rng.next_below(params.num_datasets));
            bool dup = false;
            for (std::size_t c : chosen) dup = dup || c == ds;
            if (!dup) chosen.push_back(ds);
        }
        for (std::size_t ds : chosen) {
            const auto accesses = static_cast<std::uint64_t>(
                rng.next_in(static_cast<std::int64_t>(params.min_accesses),
                            static_cast<std::int64_t>(params.max_accesses)));
            phase.uses.push_back(KernelUse{ds, accesses});
        }
        app.phases.push_back(std::move(phase));
    }
    app.validate();
    return app;
}

}  // namespace memopt
