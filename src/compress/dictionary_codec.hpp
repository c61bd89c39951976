// Frequent-value dictionary codec.
//
// The dictionary approach the 1B papers argue against: a small table of the
// application's most frequent 32-bit words is trained offline from a
// profiling trace; at run time each word is either a dictionary index
// (1 + log2(N) bits) or an escaped raw word (1 + 32 bits). A per-line raw
// fallback bounds expansion at 1 bit. The training step is exactly the
// "dictionary lookup" hardware (a CAM) whose cost the transformation paper
// avoids — having it in the library makes that comparison concrete.
#pragma once

#include <cstdint>
#include <span>
#include <vector>

#include "compress/codec.hpp"

namespace memopt {

/// The frequent-value codec. Construct via train() or from an explicit
/// dictionary.
class DictionaryCodec final : public LineCodec {
public:
    /// Build from an explicit dictionary (size must be a nonzero power of
    /// two, at most 65536 entries; entries must be unique).
    explicit DictionaryCodec(std::vector<std::uint32_t> dictionary);

    /// Train a dictionary of `entries` words from a profiling word stream,
    /// e.g. the write values of a trace (most frequent first;
    /// deterministic tie-break).
    static DictionaryCodec train(std::span<const std::uint32_t> words,
                                 std::size_t entries = 16);

    std::string name() const override { return "dictionary"; }
    BitWriter encode(std::span<const std::uint8_t> line) const override;
    std::vector<std::uint8_t> decode(std::span<const std::uint8_t> coded,
                                     std::size_t line_bytes) const override;

    const std::vector<std::uint32_t>& dictionary() const { return dict_; }
    unsigned index_bits() const { return index_bits_; }

private:
    std::vector<std::uint32_t> dict_;
    unsigned index_bits_;
};

}  // namespace memopt
