#include "sim/memory.hpp"

#include "support/assert.hpp"
#include "support/bits.hpp"
#include "support/string_util.hpp"
#include "trace/trace.hpp"

namespace memopt {

Memory::Memory(std::uint64_t size_bytes) {
    require(is_pow2(size_bytes), "Memory: size must be a power of two");
    require(size_bytes >= 4096, "Memory: size must be >= 4 KiB");
    bytes_.assign(size_bytes, 0);
}

void Memory::check(std::uint64_t addr, std::uint64_t size) const {
    if (addr + size > bytes_.size() || addr + size < addr)
        throw Error(format("memory access out of range: addr=0x%llx size=%llu",
                           static_cast<unsigned long long>(addr),
                           static_cast<unsigned long long>(size)));
    if (addr % size != 0)
        throw Error(format("misaligned %llu-byte access at 0x%llx",
                           static_cast<unsigned long long>(size),
                           static_cast<unsigned long long>(addr)));
}

std::uint8_t Memory::load8(std::uint64_t addr) const {
    check(addr, 1);
    return bytes_[addr];
}

std::uint16_t Memory::load16(std::uint64_t addr) const {
    check(addr, 2);
    return static_cast<std::uint16_t>(bytes_[addr] | (bytes_[addr + 1] << 8));
}

std::uint32_t Memory::load32(std::uint64_t addr) const {
    check(addr, 4);
    return static_cast<std::uint32_t>(bytes_[addr]) |
           (static_cast<std::uint32_t>(bytes_[addr + 1]) << 8) |
           (static_cast<std::uint32_t>(bytes_[addr + 2]) << 16) |
           (static_cast<std::uint32_t>(bytes_[addr + 3]) << 24);
}

void Memory::store8(std::uint64_t addr, std::uint8_t value) {
    check(addr, 1);
    bytes_[addr] = value;
}

void Memory::store16(std::uint64_t addr, std::uint16_t value) {
    check(addr, 2);
    bytes_[addr] = static_cast<std::uint8_t>(value);
    bytes_[addr + 1] = static_cast<std::uint8_t>(value >> 8);
}

void Memory::store32(std::uint64_t addr, std::uint32_t value) {
    check(addr, 4);
    bytes_[addr] = static_cast<std::uint8_t>(value);
    bytes_[addr + 1] = static_cast<std::uint8_t>(value >> 8);
    bytes_[addr + 2] = static_cast<std::uint8_t>(value >> 16);
    bytes_[addr + 3] = static_cast<std::uint8_t>(value >> 24);
}

void Memory::write_block(std::uint64_t addr, std::span<const std::uint8_t> bytes) {
    require(addr + bytes.size() <= bytes_.size() && addr + bytes.size() >= addr,
            "write_block out of range");
    std::copy(bytes.begin(), bytes.end(), bytes_.begin() + static_cast<std::ptrdiff_t>(addr));
}

}  // namespace memopt
