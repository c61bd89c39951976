#include "sched/scheduler.hpp"

#include <algorithm>
#include <array>
#include <cmath>
#include <limits>
#include <list>
#include <vector>

#include "support/assert.hpp"

namespace memopt {

namespace {

constexpr double kInf = std::numeric_limits<double>::infinity();

const std::array<MemLevel, kNumLevels> kLevels = {MemLevel::L1, MemLevel::L2, MemLevel::Ext};

constexpr double kContextBytePj = 0.9;  // per byte moved into the context store

static_assert(kL2Bytes > kContextBytes, "a staged context plane must fit in L2");

/// Effective L2 capacity, accounting for the context staging reservation.
constexpr std::uint64_t l2_capacity(bool prefetch_contexts) {
    return prefetch_contexts ? kL2Bytes - kContextBytes : kL2Bytes;
}

/// Capacity check of one phase assignment.
bool fits(const Application& app, bool prefetch, const std::vector<MemLevel>& assign) {
    std::uint64_t l1 = 0;
    std::uint64_t l2 = 0;
    for (std::size_t d = 0; d < assign.size(); ++d) {
        if (assign[d] == MemLevel::L1) l1 += app.datasets[d].bytes;
        if (assign[d] == MemLevel::L2) l2 += app.datasets[d].bytes;
    }
    return l1 <= kL1Bytes && l2 <= l2_capacity(prefetch);
}

/// Context-store simulation (LRU over kContextSlots slots). Returns the
/// number of context loads (first-use and reloads alike).
std::uint64_t count_context_loads(const Application& app) {
    std::list<std::size_t> lru;  // front = most recent
    std::uint64_t loads = 0;
    for (const KernelPhase& phase : app.phases) {
        const auto it = std::find(lru.begin(), lru.end(), phase.context);
        if (it != lru.end()) {
            lru.erase(it);
        } else {
            ++loads;
            if (lru.size() == kContextSlots) lru.pop_back();
        }
        lru.push_front(phase.context);
    }
    return loads;
}

std::size_t distinct_contexts(const Application& app) {
    std::vector<bool> seen(app.num_contexts, false);
    std::size_t n = 0;
    for (const KernelPhase& phase : app.phases) {
        if (!seen[phase.context]) {
            seen[phase.context] = true;
            ++n;
        }
    }
    return n;
}

double context_energy(const Application& app, bool prefetch) {
    const std::uint64_t loads = count_context_loads(app);
    const auto plane = static_cast<double>(kContextBytes);
    if (!prefetch) return static_cast<double>(loads) * plane * kContextBytePj;
    // With staging, each distinct context is fetched from external memory
    // into L2 once; every load into the context store then reads L2, which
    // is cheaper in proportion to the level access energies.
    const double l2_factor = access_pj(MemLevel::L2) / access_pj(MemLevel::Ext);
    const double stage = static_cast<double>(distinct_contexts(app)) * plane * kContextBytePj;
    return stage + static_cast<double>(loads) * plane * kContextBytePj * l2_factor;
}

}  // namespace

EnergyBreakdown evaluate_schedule(const Application& app, const DataSchedule& schedule) {
    app.validate();
    require(schedule.assignment.size() == app.phases.size(),
            "evaluate_schedule: wrong phase count");

    double access = 0.0;
    double movement = 0.0;
    std::vector<MemLevel> prev(app.datasets.size(), MemLevel::Ext);
    for (std::size_t p = 0; p < app.phases.size(); ++p) {
        const auto& assign = schedule.assignment[p];
        require(assign.size() == app.datasets.size(),
                "evaluate_schedule: wrong data set count in phase");
        require(fits(app, schedule.prefetch_contexts, assign),
                "evaluate_schedule: capacity violated in phase " + app.phases[p].name);
        for (std::size_t d = 0; d < assign.size(); ++d)
            movement += move_pj(prev[d], assign[d], app.datasets[d].bytes);
        for (const KernelUse& use : app.phases[p].uses)
            access += static_cast<double>(use.accesses) * access_pj(assign[use.dataset]);
        prev = assign;
    }

    EnergyBreakdown breakdown;
    breakdown.add("data_access", access);
    breakdown.add("data_movement", movement);
    breakdown.add("context_load", context_energy(app, schedule.prefetch_contexts));
    return breakdown;
}

DataSchedule naive_schedule(const Application& app) {
    app.validate();
    std::vector<MemLevel> assign(app.datasets.size(), MemLevel::Ext);
    std::uint64_t l2_used = 0;
    for (std::size_t d = 0; d < app.datasets.size(); ++d) {
        if (l2_used + app.datasets[d].bytes <= kL2Bytes) {
            assign[d] = MemLevel::L2;
            l2_used += app.datasets[d].bytes;
        }
    }
    DataSchedule schedule;
    schedule.assignment.assign(app.phases.size(), assign);
    schedule.prefetch_contexts = false;
    return schedule;
}

namespace {

DataSchedule greedy_with_prefetch(const Application& app, bool prefetch) {
    DataSchedule schedule;
    schedule.prefetch_contexts = prefetch;
    std::vector<MemLevel> prev(app.datasets.size(), MemLevel::Ext);

    for (const KernelPhase& phase : app.phases) {
        std::vector<MemLevel> assign(app.datasets.size(), MemLevel::Ext);
        std::uint64_t remaining_l1 = kL1Bytes;
        std::uint64_t remaining_l2 = l2_capacity(prefetch);

        // Used data sets first, by access density (accesses per byte).
        std::vector<KernelUse> uses = phase.uses;
        std::sort(uses.begin(), uses.end(), [&](const KernelUse& a, const KernelUse& b) {
            const double da = static_cast<double>(a.accesses) /
                              static_cast<double>(app.datasets[a.dataset].bytes);
            const double db = static_cast<double>(b.accesses) /
                              static_cast<double>(app.datasets[b.dataset].bytes);
            if (da != db) return da > db;
            return a.dataset < b.dataset;  // deterministic tie-break
        });
        for (const KernelUse& use : uses) {
            const std::uint64_t bytes = app.datasets[use.dataset].bytes;
            double best_cost = kInf;
            MemLevel best = MemLevel::Ext;
            for (MemLevel level : kLevels) {
                if (level == MemLevel::L1 && bytes > remaining_l1) continue;
                if (level == MemLevel::L2 && bytes > remaining_l2) continue;
                const double cost = static_cast<double>(use.accesses) * access_pj(level) +
                                    move_pj(prev[use.dataset], level, bytes);
                if (cost < best_cost) {
                    best_cost = cost;
                    best = level;
                }
            }
            assign[use.dataset] = best;
            if (best == MemLevel::L1) remaining_l1 -= bytes;
            if (best == MemLevel::L2) remaining_l2 -= bytes;
        }

        // Unused data sets keep their residency when it still fits
        // (avoiding pointless copies), otherwise they spill to Ext.
        for (std::size_t d = 0; d < app.datasets.size(); ++d) {
            bool used = false;
            for (const KernelUse& use : phase.uses) used = used || use.dataset == d;
            if (used) continue;
            const std::uint64_t bytes = app.datasets[d].bytes;
            MemLevel keep = prev[d];
            if (keep == MemLevel::L1 && bytes <= remaining_l1) {
                remaining_l1 -= bytes;
            } else if (keep == MemLevel::L2 && bytes <= remaining_l2) {
                remaining_l2 -= bytes;
            } else {
                keep = MemLevel::Ext;
            }
            assign[d] = keep;
        }

        schedule.assignment.push_back(assign);
        prev = std::move(assign);
    }
    return schedule;
}

}  // namespace

DataSchedule greedy_schedule(const Application& app) {
    app.validate();
    DataSchedule no_prefetch = greedy_with_prefetch(app, false);
    DataSchedule with_prefetch = greedy_with_prefetch(app, true);
    const double e0 = evaluate_schedule(app, no_prefetch).total();
    const double e1 = evaluate_schedule(app, with_prefetch).total();
    return e1 < e0 ? with_prefetch : no_prefetch;
}

namespace {

/// All capacity-feasible assignment vectors for `app` (3^D enumeration).
std::vector<std::vector<MemLevel>> feasible_states(const Application& app, bool prefetch) {
    const std::size_t d = app.datasets.size();
    std::vector<std::vector<MemLevel>> states;
    std::vector<MemLevel> current(d, MemLevel::L1);
    std::size_t total = 1;
    for (std::size_t i = 0; i < d; ++i) total *= kNumLevels;
    for (std::size_t code = 0; code < total; ++code) {
        std::size_t rest = code;
        for (std::size_t i = 0; i < d; ++i) {
            current[i] = kLevels[rest % kNumLevels];
            rest /= kNumLevels;
        }
        if (fits(app, prefetch, current)) states.push_back(current);
    }
    return states;
}

DataSchedule viterbi(const Application& app, bool prefetch) {
    const auto states = feasible_states(app, prefetch);
    MEMOPT_ASSERT(!states.empty());  // all-Ext is always feasible
    const std::size_t s = states.size();
    const std::size_t p = app.phases.size();

    // Movement cost matrix between states is phase-independent but large;
    // compute transitions lazily instead.
    auto move_cost = [&](const std::vector<MemLevel>& a, const std::vector<MemLevel>& b) {
        double cost = 0.0;
        for (std::size_t i = 0; i < a.size(); ++i)
            cost += move_pj(a[i], b[i], app.datasets[i].bytes);
        return cost;
    };
    auto access_cost = [&](std::size_t phase, const std::vector<MemLevel>& assign) {
        double cost = 0.0;
        for (const KernelUse& use : app.phases[phase].uses)
            cost += static_cast<double>(use.accesses) * access_pj(assign[use.dataset]);
        return cost;
    };

    const std::vector<MemLevel> start(app.datasets.size(), MemLevel::Ext);
    std::vector<double> best(s, kInf);
    std::vector<std::vector<std::size_t>> parent(p, std::vector<std::size_t>(s, 0));
    for (std::size_t j = 0; j < s; ++j)
        best[j] = move_cost(start, states[j]) + access_cost(0, states[j]);

    for (std::size_t phase = 1; phase < p; ++phase) {
        std::vector<double> next(s, kInf);
        for (std::size_t j = 0; j < s; ++j) {
            const double access = access_cost(phase, states[j]);
            for (std::size_t i = 0; i < s; ++i) {
                if (best[i] == kInf) continue;
                const double cand = best[i] + move_cost(states[i], states[j]) + access;
                if (cand < next[j]) {
                    next[j] = cand;
                    parent[phase][j] = i;
                }
            }
        }
        best = std::move(next);
    }

    std::size_t arg = 0;
    for (std::size_t j = 1; j < s; ++j) {
        if (best[j] < best[arg]) arg = j;
    }

    DataSchedule schedule;
    schedule.prefetch_contexts = prefetch;
    schedule.assignment.assign(p, {});
    for (std::size_t phase = p; phase-- > 0;) {
        schedule.assignment[phase] = states[arg];
        if (phase > 0) arg = parent[phase][arg];
    }
    return schedule;
}

}  // namespace

DataSchedule optimal_schedule(const Application& app) {
    app.validate();
    require(app.datasets.size() <= 6, "optimal_schedule: too many data sets (exact DP)");
    DataSchedule no_prefetch = viterbi(app, false);
    DataSchedule with_prefetch = viterbi(app, true);
    const double e0 = evaluate_schedule(app, no_prefetch).total();
    const double e1 = evaluate_schedule(app, with_prefetch).total();
    return e1 < e0 ? with_prefetch : no_prefetch;
}

}  // namespace memopt
