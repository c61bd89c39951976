// Byte-level primitives shared by the binary formats (.mtsc, memopt.ckpt.v1
// and its records) and the hashed fingerprints.
//
// Loads and stores are explicit little-endian byte assembly, so file bytes
// never depend on the host's endianness or alignment. Fnv1a64 is the
// repository's one FNV-1a-64 implementation: the checkpoint checksum and
// the checkpoint config fingerprints both hash through it.
#pragma once

#include <bit>
#include <cstdint>
#include <span>
#include <string_view>

namespace memopt {

inline std::uint32_t load_le32(const std::uint8_t* p) {
    std::uint32_t v = 0;
    for (int i = 3; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

inline std::uint64_t load_le64(const std::uint8_t* p) {
    std::uint64_t v = 0;
    for (int i = 7; i >= 0; --i) v = (v << 8) | p[i];
    return v;
}

inline void store_le32(std::uint8_t* p, std::uint32_t v) {
    for (int i = 0; i < 4; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

inline void store_le64(std::uint8_t* p, std::uint64_t v) {
    for (int i = 0; i < 8; ++i) p[i] = static_cast<std::uint8_t>(v >> (8 * i));
}

/// Incremental FNV-1a 64-bit over a fixed sequence of fields. Integers
/// hash as their little-endian bytes and doubles as their bit patterns, so
/// a fingerprint is the same on every host.
class Fnv1a64 {
public:
    Fnv1a64& byte(std::uint8_t b) {
        h_ ^= b;
        h_ *= 0x100000001b3ULL;
        return *this;
    }
    Fnv1a64& bytes(std::span<const std::uint8_t> data) {
        for (const std::uint8_t b : data) byte(b);
        return *this;
    }
    Fnv1a64& bytes(std::string_view text) {
        for (const char c : text) byte(static_cast<std::uint8_t>(c));
        return *this;
    }
    Fnv1a64& u64(std::uint64_t v) {
        for (int i = 0; i < 8; ++i) byte(static_cast<std::uint8_t>(v >> (8 * i)));
        return *this;
    }
    Fnv1a64& f64(double v) { return u64(std::bit_cast<std::uint64_t>(v)); }
    std::uint64_t value() const { return h_; }

private:
    std::uint64_t h_ = 0xcbf29ce484222325ULL;
};

/// FNV-1a 64-bit of one byte string.
inline std::uint64_t fnv1a64(std::span<const std::uint8_t> bytes) {
    return Fnv1a64().bytes(bytes).value();
}

}  // namespace memopt
