// Seeded differential tests of the coherent multi-core replay against the
// reference models in coherence_reference.hpp: whole machines over core
// counts, L1 and L2 geometries, synthetic families, chunk sizes and job
// counts, and the cache model alone under seeded random call sequences.
#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "cache/cache.hpp"
#include "cache/mcache.hpp"
#include "coherence_reference.hpp"
#include "core/workload.hpp"
#include "support/json.hpp"
#include "support/parallel.hpp"
#include "support/rng.hpp"

namespace memopt {
namespace {

// ------------------------------------------------------------ machines ----

void stats_json(JsonWriter& w, const CacheStats& s) {
    w.begin_object();
    w.member("read_hits", s.read_hits);
    w.member("read_misses", s.read_misses);
    w.member("write_hits", s.write_hits);
    w.member("write_misses", s.write_misses);
    w.member("fills", s.fills);
    w.member("writebacks", s.writebacks);
    w.member("miss_rate", s.miss_rate());
    w.end_object();
}

// What to_json writes, read through the accessors both machines share.
// machine_json(product) == to_json(product) is checked on every case, so
// the reference machine is compared with to_json's output.
template <class Machine>
std::string machine_json(const Machine& m) {
    std::ostringstream os;
    JsonWriter w(os);
    const MultiCoreConfig& cfg = m.config();
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
    for (unsigned c = 0; c < cfg.cores; ++c) stats_json(w, m.l1(c).stats());
    w.end_array();
    w.key("l2_per_bank").begin_array();
    for (unsigned b = 0; b < cfg.l2_banks; ++b) stats_json(w, m.l2_bank(b).stats());
    w.end_array();
    const CoherenceStats& cs = m.directory().stats();
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
    w.member("line_fetches", m.traffic().line_fetches);
    w.member("line_writes", m.traffic().line_writes);
    w.member("word_writes", m.traffic().word_writes);
    w.end_object();
    w.key("energy");
    m.energy().to_json(w);
    w.end_object();
    return os.str();
}

std::string product_json(const MultiCoreCacheSystem& system) {
    std::ostringstream os;
    JsonWriter w(os);
    to_json(w, system);
    return os.str();
}

using Snapshot = std::vector<std::pair<std::uint64_t, DirectoryLine>>;

void expect_same_directory(const Snapshot& product, const Snapshot& reference) {
    ASSERT_EQ(product.size(), reference.size());
    for (std::size_t i = 0; i < product.size(); ++i) {
        EXPECT_EQ(product[i].first, reference[i].first);
        EXPECT_EQ(product[i].second.state, reference[i].second.state) << product[i].first;
        EXPECT_EQ(product[i].second.sharers, reference[i].second.sharers) << product[i].first;
    }
}

// A small L1 (16 lines of 32 B) so every family evicts and shares; 16 ways
// is fully associative. L2 banks hold 64 lines each.
MultiCoreConfig machine_config(unsigned cores, unsigned l1_ways, unsigned l2_banks) {
    MultiCoreConfig cfg;
    cfg.cores = cores;
    cfg.l2_banks = l2_banks;
    cfg.l1.size_bytes = 512;
    cfg.l1.line_bytes = 32;
    cfg.l1.associativity = l1_ways;
    cfg.l2_bank.size_bytes = 2048;
    cfg.l2_bank.line_bytes = 32;
    cfg.l2_bank.associativity = 4;
    return cfg;
}

std::string family_spec(const std::string& family, std::size_t n) {
    std::string spec = "synthetic:" + family + ",span=8192,n=" + std::to_string(n) +
                       ",seed=11,write=0.3";
    if (family == "producer-consumer") spec += ",shared-bytes=1024,shared-frac=0.5";
    if (family == "hotspot") spec += ",hotspots=4,hotspot-bytes=256,hot-frac=0.8";
    if (family == "stride") spec += ",stride=40";
    return spec;
}

// Replays `spec` through both machines, the product at --jobs 1 and 8, and
// requires the same report and the same directory at the end of the replay
// and again after the flush.
void expect_machines_agree(const MultiCoreConfig& cfg, const std::string& spec,
                           std::size_t chunk) {
    SCOPED_TRACE(spec + " cores=" + std::to_string(cfg.cores) +
                 " l1_ways=" + std::to_string(cfg.l1.associativity) +
                 " banks=" + std::to_string(cfg.l2_banks) + " chunk=" + std::to_string(chunk));
    WorkloadRepository& repo = WorkloadRepository::instance();
    ReferenceMultiCore reference(cfg);
    reference.replay(repo.open_core_trace_sources(spec, cfg.cores, chunk));
    const Snapshot replayed = reference.directory().snapshot();
    reference.flush();
    const std::string expected = machine_json(reference);

    const std::size_t prior = default_jobs();
    for (const std::size_t jobs : {1, 8}) {
        set_default_jobs(jobs);
        MultiCoreCacheSystem system(cfg);
        system.replay(repo.open_core_trace_sources(spec, cfg.cores, chunk));
        expect_same_directory(system.directory().snapshot(), replayed);
        system.flush();
        expect_same_directory(system.directory().snapshot(), reference.directory().snapshot());
        const std::string actual = product_json(system);
        EXPECT_EQ(machine_json(system), actual);  // the mirror prints what to_json prints
        EXPECT_EQ(actual, expected) << "jobs=" << jobs;
    }
    set_default_jobs(prior);
}

TEST(CoherenceReference, MachinesAgreeOverCoresGeometriesFamiliesAndChunks) {
    const unsigned core_counts[] = {1, 2, 4, 8, 64};
    const unsigned l1_ways[] = {1, 2, 4, 16};  // direct-mapped .. fully associative
    const unsigned bank_counts[] = {1, 3, 4};
    const char* families[] = {"producer-consumer", "uniform", "hotspot", "stride"};
    const std::size_t chunks[] = {1, 1000, 65536};
    // Every core count, L1 and family; bank count and chunk size cycle
    // through all nine pairs along the way.
    std::size_t i = 0;
    for (const unsigned cores : core_counts)
        for (const unsigned ways : l1_ways)
            for (const char* family : families) {
                expect_machines_agree(machine_config(cores, ways, bank_counts[i % 3]),
                                      family_spec(family, 2000), chunks[(i / 3) % 3]);
                ++i;
            }
    // Two cores using up 64Ki-access chunks together: the refills between
    // turns run on the pool at --jobs 8.
    expect_machines_agree(machine_config(2, 4, 3), family_spec("producer-consumer", 140000),
                          65536);
}

// --------------------------------------------------------- cache model ----

void expect_same_result(const CacheAccessResult& a, const CacheAccessResult& b) {
    EXPECT_EQ(a.hit, b.hit);
    EXPECT_EQ(a.was_dirty, b.was_dirty);
    EXPECT_EQ(a.fill_line, b.fill_line);
    EXPECT_EQ(a.writeback_line, b.writeback_line);
    EXPECT_EQ(a.evicted_line, b.evicted_line);
}

TEST(CoherenceReference, CacheModelMatchesReferenceUnderRandomCalls) {
    struct Geometry {
        std::uint64_t size;
        unsigned line;
        unsigned ways;
    };
    const Geometry geometries[] = {
        {256, 16, 1}, {512, 32, 2}, {1024, 32, 4}, {512, 32, 16}, {4096, 64, 8}, {64, 4, 2},
    };
    for (const Geometry& g : geometries) {
        for (const std::uint64_t seed : {1u, 2u, 3u}) {
            SCOPED_TRACE("size=" + std::to_string(g.size) + " line=" + std::to_string(g.line) +
                         " ways=" + std::to_string(g.ways) + " seed=" + std::to_string(seed));
            const CacheConfig cfg{g.size, g.line, g.ways};
            CacheModel model(cfg);
            ReferenceCacheModel reference(cfg);
            Rng rng(seed);
            // Addresses over four times the capacity: hits, conflicts and
            // evictions of clean and dirty lines all occur.
            const std::uint64_t span = 4 * g.size;
            for (int step = 0; step < 20000; ++step) {
                const std::uint64_t addr = rng.next_below(span);
                const std::uint64_t op = rng.next_below(100);
                if (op < 80) {
                    const AccessKind kind = rng.next_bool(0.4) ? AccessKind::Write
                                                               : AccessKind::Read;
                    expect_same_result(model.access(addr, kind), reference.access(addr, kind));
                } else if (op < 88) {
                    EXPECT_EQ(model.probe(addr), reference.probe(addr));
                } else if (op < 94) {
                    EXPECT_EQ(model.invalidate(addr), reference.invalidate(addr));
                } else if (op < 99) {
                    EXPECT_EQ(model.downgrade(addr), reference.downgrade(addr));
                } else if (rng.next_bool(0.8)) {
                    EXPECT_EQ(model.flush(), reference.flush());
                } else {
                    model.reset();
                    reference.reset();
                }
                ASSERT_EQ(model.stats(), reference.stats()) << "step " << step;
                ASSERT_EQ(model.resident_lines(), reference.resident_lines()) << "step " << step;
            }
        }
    }
}

}  // namespace
}  // namespace memopt
