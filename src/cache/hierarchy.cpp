#include "cache/hierarchy.hpp"

#include <algorithm>

#include "support/assert.hpp"
#include "trace/source.hpp"

namespace memopt {

CacheHierarchy::CacheHierarchy(const CacheConfig& l1, const CacheConfig& l2)
    : l1_(l1), l2_(l2) {
    require(l2.line_bytes >= l1.line_bytes,
            "CacheHierarchy: L2 line must be >= L1 line");
    require(l2.size_bytes >= l1.size_bytes,
            "CacheHierarchy: L2 must be at least as large as L1");
}

void CacheHierarchy::l2_access(std::uint64_t addr, AccessKind kind) {
    const CacheAccessResult r = l2_.access(addr, kind);
    if (r.fill_line) ++traffic_.line_fetches;
    if (r.writeback_line) ++traffic_.line_writes;
    if (r.write_through_addr) ++traffic_.word_writes;
}

void CacheHierarchy::access(std::uint64_t addr, AccessKind kind) {
    const CacheAccessResult r = l1_.access(addr, kind);
    // A dirty L1 eviction becomes an L2 write of the victim line.
    if (r.writeback_line) l2_access(*r.writeback_line, AccessKind::Write);
    // An L1 fill becomes an L2 read of the missing line.
    if (r.fill_line) l2_access(*r.fill_line, AccessKind::Read);
    // Write-through traffic from L1 goes into L2 as a word write.
    if (r.write_through_addr) l2_access(*r.write_through_addr, AccessKind::Write);
}

void CacheHierarchy::replay(TraceSource& source) {
    source.reset();
    const std::uint64_t line = l1_.config().line_bytes;
    TraceChunk chunk;
    while (source.next(chunk)) {
        for (std::size_t i = 0; i < chunk.size(); ++i) {
            // Size-aware split: an access that straddles an L1 line
            // boundary touches every covered line, exactly like the
            // byte-accurate replay in compress/memsys — ignoring
            // chunk.sizes here undercounted misses and traffic.
            const std::uint64_t addr = chunk.addrs[i];
            const AccessKind kind = chunk.kinds[i];
            const std::uint64_t last =
                addr + std::max<std::uint64_t>(chunk.sizes[i], 1) - 1;
            access(addr, kind);
            for (std::uint64_t a = l1_.line_base(addr) + line; a <= last; a += line)
                access(a, kind);
        }
    }
}

void CacheHierarchy::flush() {
    for (std::uint64_t line : l1_.flush()) l2_access(line, AccessKind::Write);
    traffic_.line_writes += l2_.flush().size();
}

}  // namespace memopt
