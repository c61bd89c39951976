#include "cache/mcache.hpp"

#include <algorithm>
#include <bit>

#include "energy/coherence_model.hpp"
#include "energy/dram_model.hpp"
#include "energy/sram_model.hpp"
#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "trace/source.hpp"

namespace memopt {

namespace {
// The machine-level checks, made before any member is built. The L1 models
// then check their own geometry, which the directory bound divides by.
const MultiCoreConfig& validated(const MultiCoreConfig& config) {
    require(config.cores >= 1 && config.cores <= 64,
            "MultiCoreCacheSystem: core count must be in [1, 64]");
    require(config.l2_banks >= 1,
            "MultiCoreCacheSystem: need at least one L2 bank");
    require(config.l2_bank.line_bytes == config.l1.line_bytes,
            "MultiCoreCacheSystem: L2 bank line size must equal the L1 line size "
            "(the directory tracks L1-line-sized blocks)");
    return config;
}
}  // namespace

MultiCoreCacheSystem::MultiCoreCacheSystem(const MultiCoreConfig& config)
    : config_(validated(config)),
      l1s_(config.cores, CacheModel(config.l1)),
      l2_banks_(config.l2_banks, CacheModel(config.l2_bank)),
      // Each tracked line sits in at least one L1.
      directory_(config.cores,
                 config.cores * l1s_.front().num_sets() * config.l1.associativity),
      line_shift_(log2_exact(config.l1.line_bytes)) {}

unsigned MultiCoreCacheSystem::bank_of(std::uint64_t addr) const {
    return static_cast<unsigned>((addr >> line_shift_) % config_.l2_banks);
}

void MultiCoreCacheSystem::l2_access(std::uint64_t line, AccessKind kind) {
    const CacheAccessResult r = l2_banks_[bank_of(line)].access(line, kind);
    if (r.fill_line) ++traffic_.line_fetches;
    if (r.writeback_line) ++traffic_.line_writes;
}

void MultiCoreCacheSystem::apply_actions(std::uint64_t line,
                                         const CoherenceActions& actions) {
    // Order matters for the counters: the Modified owner's data reaches its
    // home bank before any copy is killed and before the requester refills.
    if (actions.writeback_owner) {
        const bool was_dirty = l1s_[*actions.writeback_owner].downgrade(line);
        MEMOPT_ASSERT_MSG(was_dirty,
                          "coherence: directory Modified owner held a clean line");
        l2_access(line, AccessKind::Write);
    }
    for (std::uint64_t targets = actions.invalidate; targets != 0; targets &= targets - 1) {
        const auto dirty = l1s_[std::countr_zero(targets)].invalidate(line);
        MEMOPT_ASSERT_MSG(dirty.has_value(),
                          "coherence: invalidation target does not hold the line");
        // A dirty target is always the flushed owner, handled above.
    }
    if (actions.fetch) l2_access(line, AccessKind::Read);
}

void MultiCoreCacheSystem::access(unsigned core, std::uint64_t addr, AccessKind kind) {
    MEMOPT_ASSERT(core < config_.cores);
    CacheModel& l1 = l1s_[core];
    const std::uint64_t line = l1.line_base(addr);
    // In this protocol the L1 dirty bit IS the Modified indicator: stores
    // set it (M), downgrades clear it (S), fills install clean (S). A hit
    // reports it from before the access.
    const CacheAccessResult r = l1.access(addr, kind);

    // Precise sharer maintenance: a replaced victim (clean or dirty)
    // leaves the directory before the new line enters it.
    if (r.evicted_line) {
        directory_.on_evict(core, *r.evicted_line);
        if (r.writeback_line) l2_access(*r.writeback_line, AccessKind::Write);
    }

    if (r.hit) {
        // Load hits and stores to an already-Modified line are
        // coherence-silent; a store to a Shared copy raises an upgrade.
        if (kind == AccessKind::Write && !r.was_dirty)
            apply_actions(line, directory_.on_write(core, line));
        return;
    }

    const CoherenceActions actions = kind == AccessKind::Read
                                         ? directory_.on_read_miss(core, line)
                                         : directory_.on_write(core, line);
    apply_actions(line, actions);
}

void MultiCoreCacheSystem::replay(std::span<const std::unique_ptr<TraceSource>> sources) {
    require(sources.size() == config_.cores,
            "MultiCoreCacheSystem::replay: need exactly one trace source per core");
    struct Cursor {
        TraceChunk chunk;
        std::size_t i = 0;
        bool done = false;
    };
    std::vector<Cursor> cursors(sources.size());
    // Cores whose chunk is used up, in core order, and how many accesses
    // those chunks held. The first fill counts the whole traces instead.
    std::vector<unsigned> empty;
    empty.reserve(sources.size());
    std::uint64_t consumed = 0;
    for (unsigned c = 0; c < sources.size(); ++c) {
        sources[c]->reset();
        empty.push_back(c);
        consumed += sources[c]->size();
    }
    // Each used-up cursor pulls from its own source until it holds an
    // access or the source ends. The sources are distinct objects with
    // fixed sequences, so the refills are independent of each other.
    const auto refill = [&](std::size_t k) {
        Cursor& cur = cursors[empty[k]];
        cur.i = 0;
        do {
            if (!sources[empty[k]]->next(cur.chunk)) {
                cur.done = true;
                return;
            }
        } while (cur.chunk.empty());
    };

    bool live = true;
    while (live) {
        // Refill between turns: in parallel once the chunks just consumed
        // amount to a task's worth of accesses, inline below that (so a
        // small chunk size pays no pool dispatch per turn). parallel_for
        // rethrows the lowest failing core's error, as the loop would.
        if (consumed >= stream_detail::kMinAccessesPerTask) {
            parallel_for(empty.size(), refill);
        } else {
            for (std::size_t k = 0; k < empty.size(); ++k) refill(k);
        }
        empty.clear();
        consumed = 0;

        live = false;
        // Fixed arbitration order: one access per live core per turn, in
        // core order — independent of chunk geometry and job count.
        for (unsigned c = 0; c < sources.size(); ++c) {
            Cursor& cur = cursors[c];
            if (cur.done) continue;
            const std::uint64_t addr = cur.chunk.addrs[cur.i];
            const AccessKind kind = cur.chunk.kinds[cur.i];
            const std::uint64_t last =
                addr + std::max<std::uint64_t>(cur.chunk.sizes[cur.i], 1) - 1;
            access(c, addr, kind);
            // The other covered lines, by line index: a line base past the
            // last line of the address space would wrap to 0.
            for (std::uint64_t l = (addr >> line_shift_) + 1; l <= last >> line_shift_; ++l)
                access(c, l << line_shift_, kind);
            if (++cur.i == cur.chunk.size()) {
                empty.push_back(c);
                consumed += cur.chunk.size();
            }
            live = true;
        }
    }
}

void MultiCoreCacheSystem::flush() {
    for (unsigned c = 0; c < config_.cores; ++c) {
        for (const std::uint64_t line : l1s_[c].flush()) {
            directory_.on_flush(c, line);
            l2_access(line, AccessKind::Write);
        }
    }
    for (CacheModel& bank : l2_banks_)
        traffic_.line_writes += bank.flush().size();
}

CacheStats MultiCoreCacheSystem::l1_totals() const {
    CacheStats total;
    for (const CacheModel& l1 : l1s_) total += l1.stats();
    return total;
}

CacheStats MultiCoreCacheSystem::l2_totals() const {
    CacheStats total;
    for (const CacheModel& bank : l2_banks_) total += bank.stats();
    return total;
}

EnergyBreakdown MultiCoreCacheSystem::energy() const {
    EnergyBreakdown out;
    const unsigned line_bytes = config_.l1.line_bytes;
    const double words_per_line = static_cast<double>(line_bytes) / 4.0;

    // Array energy: one read/write per access plus the word-wise line
    // install on every fill (the same accounting as the compressed-memory
    // simulation in cache/memsys.cpp).
    const SramEnergyModel l1_model(config_.l1.size_bytes);
    const CacheStats l1 = l1_totals();
    out.add("l1", l1_model.read_energy() * static_cast<double>(l1.read_hits + l1.read_misses) +
                      l1_model.write_energy() *
                          static_cast<double>(l1.write_hits + l1.write_misses) +
                      l1_model.write_energy() * words_per_line * static_cast<double>(l1.fills));

    const SramEnergyModel l2_model(config_.l2_bank.size_bytes);
    const CacheStats l2 = l2_totals();
    out.add("l2", l2_model.read_energy() * static_cast<double>(l2.read_hits + l2.read_misses) +
                      l2_model.write_energy() *
                          static_cast<double>(l2.write_hits + l2.write_misses) +
                      l2_model.write_energy() * words_per_line * static_cast<double>(l2.fills));
    out.add("bank_select",
            bank_select_energy(config_.l2_banks) * static_cast<double>(l2.accesses()));

    const CoherenceStats& cs = directory_.stats();
    const CoherenceEnergyModel coherence;
    out.add("directory", coherence.lookup_energy(cs.lookups));
    out.add("coherence", coherence.message_energy(cs.messages()) +
                             coherence.transfer_energy(cs.dirty_transfers() * line_bytes));

    const DramEnergyModel dram;
    out.add("main_memory",
            dram.burst_energy(line_bytes) *
                static_cast<double>(traffic_.line_fetches + traffic_.line_writes));
    return out;
}

void to_json(JsonWriter& w, const MultiCoreCacheSystem& system) {
    const MultiCoreConfig& cfg = system.config();
    w.begin_object();
    w.key("config").begin_object();
    w.member("cores", static_cast<std::uint64_t>(cfg.cores));
    w.member("l1_bytes", cfg.l1.size_bytes);
    w.member("l1_line_bytes", static_cast<std::uint64_t>(cfg.l1.line_bytes));
    w.member("l1_ways", static_cast<std::uint64_t>(cfg.l1.associativity));
    w.member("l2_banks", static_cast<std::uint64_t>(cfg.l2_banks));
    w.member("l2_bank_bytes", cfg.l2_bank.size_bytes);
    w.end_object();
    w.key("l1_per_core").begin_array();
    for (unsigned c = 0; c < system.cores(); ++c)
        to_json(w, system.l1(c).stats());
    w.end_array();
    w.key("l2_per_bank").begin_array();
    for (unsigned b = 0; b < cfg.l2_banks; ++b)
        to_json(w, system.l2_bank(b).stats());
    w.end_array();
    const CoherenceStats& cs = system.directory().stats();
    w.key("coherence").begin_object();
    w.member("lookups", cs.lookups);
    w.member("upgrades", cs.upgrades);
    w.member("downgrades", cs.downgrades);
    w.member("owner_flushes", cs.owner_flushes);
    w.member("invalidations", cs.invalidations);
    w.member("evictions", cs.evictions);
    w.member("messages", cs.messages());
    w.member("dirty_transfers", cs.dirty_transfers());
    w.end_object();
    w.key("traffic").begin_object();
    w.member("line_fetches", system.traffic().line_fetches);
    w.member("line_writes", system.traffic().line_writes);
    // Frozen memopt.report.v1 key: every cache is write-back, so no word is
    // ever written through to memory.
    w.member("word_writes", 0u);
    w.end_object();
    w.key("energy");
    system.energy().to_json(w);
    w.end_object();
}

}  // namespace memopt
