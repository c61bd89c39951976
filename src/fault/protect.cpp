#include "fault/protect.hpp"

#include <array>
#include <bit>

#include "support/assert.hpp"

namespace memopt {

namespace {

constexpr unsigned kDataBits = 64;
constexpr unsigned kHammingBits = 7;   // positions 1,2,4,8,16,32,64 of 1..71
constexpr unsigned kCodewordTop = 71;  // highest 1-based codeword position

/// Position tables of the (72,64) code, built once.
struct SecdedTables {
    std::array<std::uint8_t, kDataBits> data_pos{};  // data bit -> codeword position
    std::array<int, kCodewordTop + 1> pos_to_data{};  // position -> data bit, -1 = check
    std::array<std::uint64_t, kHammingBits> cover{};  // check i -> covered data bits

    SecdedTables() {
        pos_to_data.fill(-1);
        unsigned k = 0;
        for (unsigned pos = 1; pos <= kCodewordTop; ++pos) {
            if ((pos & (pos - 1)) == 0) continue;  // power of two: a check position
            data_pos[k] = static_cast<std::uint8_t>(pos);
            pos_to_data[pos] = static_cast<int>(k);
            ++k;
        }
        MEMOPT_ASSERT(k == kDataBits);
        for (unsigned i = 0; i < kHammingBits; ++i) {
            for (unsigned d = 0; d < kDataBits; ++d)
                if (data_pos[d] & (1u << i)) cover[i] |= 1ull << d;
        }
    }
};

const SecdedTables& tables() {
    static const SecdedTables t;
    return t;
}

unsigned parity64(std::uint64_t v) { return static_cast<unsigned>(std::popcount(v)) & 1u; }

std::uint8_t hamming_bits(std::uint64_t data) {
    std::uint8_t h = 0;
    for (unsigned i = 0; i < kHammingBits; ++i)
        h = static_cast<std::uint8_t>(h | (parity64(data & tables().cover[i]) << i));
    return h;
}

}  // namespace

std::uint8_t secded_encode(std::uint64_t data) {
    const std::uint8_t h = hamming_bits(data);
    const unsigned overall = parity64(data) ^ parity64(h);
    return static_cast<std::uint8_t>(h | (overall << 7));
}

CheckOutcome secded_check(std::uint64_t& data, std::uint8_t& check) {
    const std::uint8_t expected = hamming_bits(data);
    const unsigned syndrome = (expected ^ check) & 0x7Fu;
    const unsigned overall_now = parity64(data) ^ parity64(check & 0x7Fu);
    const bool parity_mismatch = overall_now != ((check >> 7) & 1u);

    if (syndrome == 0 && !parity_mismatch) return CheckOutcome::Clean;
    if (syndrome == 0 && parity_mismatch) {
        // The overall parity bit itself flipped; the codeword is intact.
        check = secded_encode(data);
        return CheckOutcome::Corrected;
    }
    if (parity_mismatch) {
        // Odd-weight error with a non-zero syndrome: a single-bit error at
        // codeword position `syndrome` (a syndrome beyond the codeword
        // means aliasing from a >=3-bit flip and is flagged instead).
        if (syndrome > kCodewordTop) return CheckOutcome::Detected;
        const int data_bit = tables().pos_to_data[syndrome];
        if (data_bit >= 0) data ^= 1ull << data_bit;
        check = secded_encode(data);
        return CheckOutcome::Corrected;
    }
    // Non-zero syndrome with matching overall parity: even-weight error.
    return CheckOutcome::Detected;
}

std::uint8_t parity_encode(std::uint64_t data) {
    return static_cast<std::uint8_t>(parity64(data));
}

ProtectedBuffer::ProtectedBuffer(std::span<const std::uint8_t> bytes, ProtectionScheme scheme)
    : scheme_(scheme),
      data_bytes_(bytes.size()),
      check_bits_per_word_(protection_check_bits(scheme, kDataBits)) {
    require(!bytes.empty(), "ProtectedBuffer: empty buffer");
    const std::size_t num_words = (bytes.size() + 7) / 8;
    words_.assign(num_words, 0);
    for (std::size_t b = 0; b < bytes.size(); ++b)
        words_[b / 8] |= static_cast<std::uint64_t>(bytes[b]) << (8 * (b % 8));
    checks_.assign(num_words, 0);
    for (std::size_t w = 0; w < num_words; ++w) {
        switch (scheme_) {
            case ProtectionScheme::None: break;
            case ProtectionScheme::Parity: checks_[w] = parity_encode(words_[w]); break;
            case ProtectionScheme::Secded: checks_[w] = secded_encode(words_[w]); break;
        }
    }
}

std::size_t ProtectedBuffer::total_bits() const {
    return words_.size() * (kDataBits + check_bits_per_word_);
}

void ProtectedBuffer::flip_bit(std::size_t index) {
    MEMOPT_ASSERT_MSG(index < total_bits(), "ProtectedBuffer::flip_bit: out of range");
    const std::size_t stride = kDataBits + check_bits_per_word_;
    const std::size_t word = index / stride;
    const std::size_t offset = index % stride;
    if (offset < kDataBits)
        words_[word] ^= 1ull << offset;
    else
        checks_[word] = static_cast<std::uint8_t>(checks_[word] ^ (1u << (offset - kDataBits)));
}

ProtectedBuffer::ScrubResult ProtectedBuffer::scrub() {
    ScrubResult result;
    for (std::size_t w = 0; w < words_.size(); ++w) {
        switch (scheme_) {
            case ProtectionScheme::None:
                break;
            case ProtectionScheme::Parity:
                if (parity_encode(words_[w]) != (checks_[w] & 1u)) ++result.detected_words;
                break;
            case ProtectionScheme::Secded:
                switch (secded_check(words_[w], checks_[w])) {
                    case CheckOutcome::Clean: break;
                    case CheckOutcome::Corrected: ++result.corrected_words; break;
                    case CheckOutcome::Detected: ++result.detected_words; break;
                }
                break;
        }
    }
    return result;
}

std::vector<std::uint8_t> ProtectedBuffer::bytes() const {
    std::vector<std::uint8_t> out(data_bytes_);
    for (std::size_t b = 0; b < data_bytes_; ++b)
        out[b] = static_cast<std::uint8_t>(words_[b / 8] >> (8 * (b % 8)));
    return out;
}

}  // namespace memopt
