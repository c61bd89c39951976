#include "trace/trace.hpp"

#include <algorithm>

#include "support/string_util.hpp"

namespace memopt {

void throw_access_past_top(std::uint64_t addr, unsigned size) {
    throw Error(format("trace: access at 0x%llx of %u bytes runs past the top of the 64-bit "
                       "address space",
                       static_cast<unsigned long long>(addr), size));
}

void MemTrace::add(const MemAccess& a) {
    MEMOPT_ASSERT_MSG(a.size == 1 || a.size == 2 || a.size == 4 || a.size == 8,
                      "access size must be 1/2/4/8 bytes");
    if (a.addr + a.size - 1 < a.addr) [[unlikely]]
        throw_access_past_top(a.addr, a.size);
    if (addrs_.empty()) {
        min_addr_ = a.addr;
        max_addr_ = a.addr + a.size - 1;
    } else {
        min_addr_ = std::min(min_addr_, a.addr);
        max_addr_ = std::max(max_addr_, a.addr + a.size - 1);
    }
    if (a.kind == AccessKind::Read) ++reads_;
    else ++writes_;
    addrs_.push_back(a.addr);
    cycles_.push_back(a.cycle);
    values_.push_back(a.value);
    sizes_.push_back(a.size);
    kinds_.push_back(a.kind);
}

void MemTrace::add_read(std::uint64_t addr, std::uint8_t size, std::uint64_t cycle) {
    add(MemAccess{.addr = addr, .cycle = cycle, .size = size, .kind = AccessKind::Read});
}

void MemTrace::add_write(std::uint64_t addr, std::uint8_t size, std::uint64_t cycle) {
    add(MemAccess{.addr = addr, .cycle = cycle, .size = size, .kind = AccessKind::Write});
}

std::uint64_t MemTrace::min_addr() const {
    require(!addrs_.empty(), "min_addr on empty trace");
    return min_addr_;
}

std::uint64_t MemTrace::max_addr() const {
    require(!addrs_.empty(), "max_addr on empty trace");
    return max_addr_;
}

std::vector<std::uint32_t> MemTrace::write_values() const {
    std::vector<std::uint32_t> out;
    out.reserve(writes_);
    for (std::size_t i = 0; i < size(); ++i) {
        if (kinds_[i] == AccessKind::Write) out.push_back(values_[i]);
    }
    return out;
}

void MemTrace::clear() {
    addrs_.clear();
    cycles_.clear();
    values_.clear();
    sizes_.clear();
    kinds_.clear();
    reads_ = writes_ = 0;
    min_addr_ = max_addr_ = 0;
}

void MemTrace::reserve(std::size_t n) {
    addrs_.reserve(n);
    cycles_.reserve(n);
    values_.reserve(n);
    sizes_.reserve(n);
    kinds_.reserve(n);
}

}  // namespace memopt
