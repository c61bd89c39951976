#include "trace/trace.hpp"

#include "support/string_util.hpp"

namespace memopt {

void throw_access_past_top(std::uint64_t addr, unsigned size) {
    throw Error(format("trace: access at 0x%llx of %u bytes runs past the top of the 64-bit "
                       "address space",
                       static_cast<unsigned long long>(addr), size));
}

void TraceSummary::add(const TraceChunk& chunk) {
    // A local copy: stores to the members could alias the chunk's
    // uint64_t columns and would pin them in memory through the loop.
    TraceSummary s = *this;
    for (std::size_t i = 0; i < chunk.size(); ++i)
        s.add(chunk.addrs[i], chunk.sizes[i], chunk.kinds[i]);
    *this = s;
}

void MemTrace::add(const MemAccess& a) {
    MEMOPT_ASSERT_MSG(a.size == 1 || a.size == 2 || a.size == 4 || a.size == 8,
                      "access size must be 1/2/4/8 bytes");
    summary_.add(a.addr, a.size, a.kind);
    columns_.push_back(a);
}

void MemTrace::add_read(std::uint64_t addr, std::uint8_t size, std::uint64_t cycle) {
    add(MemAccess{.addr = addr, .cycle = cycle, .size = size, .kind = AccessKind::Read});
}

void MemTrace::add_write(std::uint64_t addr, std::uint8_t size, std::uint64_t cycle) {
    add(MemAccess{.addr = addr, .cycle = cycle, .size = size, .kind = AccessKind::Write});
}

MemAccess MemTrace::at(std::size_t i) const {
    MEMOPT_ASSERT(i < size());
    const TraceChunk c = view();
    return MemAccess{c.addrs[i], c.cycles[i], c.values[i], c.sizes[i], c.kinds[i]};
}

std::vector<std::uint32_t> MemTrace::write_values() const {
    const TraceChunk c = view();
    std::vector<std::uint32_t> out;
    out.reserve(summary_.writes);
    for (std::size_t i = 0; i < c.size(); ++i) {
        if (c.kinds[i] == AccessKind::Write) out.push_back(c.values[i]);
    }
    return out;
}

}  // namespace memopt
