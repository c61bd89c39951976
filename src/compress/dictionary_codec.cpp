#include "compress/dictionary_codec.hpp"

#include <algorithm>
#include <unordered_map>

#include "support/assert.hpp"
#include "support/bits.hpp"

namespace memopt {

DictionaryCodec::DictionaryCodec(std::vector<std::uint32_t> dictionary)
    : dict_(std::move(dictionary)) {
    require(!dict_.empty() && dict_.size() <= 65536, "DictionaryCodec: bad dictionary size");
    require(is_pow2(dict_.size()), "DictionaryCodec: dictionary size must be a power of two");
    std::vector<std::uint32_t> sorted = dict_;
    std::sort(sorted.begin(), sorted.end());
    require(std::adjacent_find(sorted.begin(), sorted.end()) == sorted.end(),
            "DictionaryCodec: duplicate dictionary entries");
    index_bits_ = log2_exact(dict_.size());
}

DictionaryCodec DictionaryCodec::train(std::span<const std::uint32_t> words,
                                       std::size_t entries) {
    require(entries > 0 && is_pow2(entries), "DictionaryCodec: entries must be a power of two");
    std::unordered_map<std::uint32_t, std::uint64_t> counts;
    for (std::uint32_t w : words) ++counts[w];
    // memopt-lint: order-independent -- ranked is immediately std::sort'ed by a
    // strict total order (count desc, then word asc) over unique keys, so the
    // map's hash order never reaches the truncation below. Pinned by
    // DictionaryCodec.TrainingInvariantUnderInsertOrder.
    std::vector<std::pair<std::uint32_t, std::uint64_t>> ranked(counts.begin(), counts.end());
    std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
        if (a.second != b.second) return a.second > b.second;
        return a.first < b.first;  // deterministic tie-break
    });
    std::vector<std::uint32_t> dict;
    dict.reserve(entries);
    for (const auto& [word, count] : ranked) {
        if (dict.size() == entries) break;
        dict.push_back(word);
    }
    // Pad with distinct unused values if the sample had too few distincts.
    std::uint32_t filler = 0xA5A5A5A5u;
    while (dict.size() < entries) {
        if (std::find(dict.begin(), dict.end(), filler) == dict.end()) dict.push_back(filler);
        ++filler;
    }
    return DictionaryCodec(std::move(dict));
}

BitWriter DictionaryCodec::encode(std::span<const std::uint8_t> line) const {
    const std::vector<std::uint32_t> words = line_words(line);
    require(!words.empty(), "DictionaryCodec: empty line");

    // Size the dictionary-coded layout first.
    std::size_t coded_bits = 1;
    std::vector<int> indices(words.size(), -1);
    for (std::size_t w = 0; w < words.size(); ++w) {
        const auto it = std::find(dict_.begin(), dict_.end(), words[w]);
        if (it != dict_.end()) {
            indices[w] = static_cast<int>(it - dict_.begin());
            coded_bits += 1 + index_bits_;
        } else {
            coded_bits += 1 + 32;
        }
    }

    BitWriter out;
    const std::size_t raw_bits = words.size() * 32;
    if (coded_bits >= 1 + raw_bits) {
        out.put_bit(false);
        for (std::uint32_t w : words) out.put_bits(w, 32);
        return out;
    }
    out.put_bit(true);
    for (std::size_t w = 0; w < words.size(); ++w) {
        if (indices[w] >= 0) {
            out.put_bit(true);
            out.put_bits(static_cast<std::uint32_t>(indices[w]), index_bits_);
        } else {
            out.put_bit(false);
            out.put_bits(words[w], 32);
        }
    }
    MEMOPT_ASSERT(out.bit_count() == coded_bits);
    return out;
}

std::vector<std::uint8_t> DictionaryCodec::decode(std::span<const std::uint8_t> coded,
                                                  std::size_t line_bytes) const {
    require(line_bytes % 4 == 0 && line_bytes > 0 && line_bytes <= kMaxLineBytes,
            "DictionaryCodec: bad line size");
    const std::size_t num_words = line_bytes / 4;
    BitReader in(coded);
    std::vector<std::uint32_t> words;
    words.reserve(num_words);
    if (!in.get_bit()) {
        for (std::size_t w = 0; w < num_words; ++w) words.push_back(in.get_bits(32));
    } else {
        for (std::size_t w = 0; w < num_words; ++w) {
            if (in.get_bit()) {
                const std::uint32_t index = in.get_bits(index_bits_);
                require(index < dict_.size(), "DictionaryCodec: corrupt index");
                words.push_back(dict_[index]);
            } else {
                words.push_back(in.get_bits(32));
            }
        }
    }
    return words_to_line(words);
}

}  // namespace memopt
