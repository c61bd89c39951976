#include "encoding/transform.hpp"

#include "energy/bus_model.hpp"
#include "support/assert.hpp"

namespace memopt {

LinearTransform::LinearTransform(std::vector<XorGate> gates) : gates_(std::move(gates)) {
    for (const XorGate& g : gates_) {
        require(g.dst < 32 && g.src < 32, "LinearTransform: bit index out of range");
        require(g.dst != g.src, "LinearTransform: gate must mix two distinct bits");
    }
}

void LinearTransform::append(XorGate gate) {
    require(gate.dst < 32 && gate.src < 32, "LinearTransform: bit index out of range");
    require(gate.dst != gate.src, "LinearTransform: gate must mix two distinct bits");
    gates_.push_back(gate);
}

std::uint32_t LinearTransform::apply(std::uint32_t w) const {
    for (const XorGate& g : gates_) {
        const std::uint32_t src_bit = (w >> g.src) & 1u;
        w ^= src_bit << g.dst;
    }
    return w;
}

std::uint32_t LinearTransform::invert(std::uint32_t w) const {
    for (auto it = gates_.rbegin(); it != gates_.rend(); ++it) {
        const std::uint32_t src_bit = (w >> it->src) & 1u;
        w ^= src_bit << it->dst;
    }
    return w;
}

std::vector<std::uint32_t> LinearTransform::apply_stream(
    std::span<const std::uint32_t> words) const {
    std::vector<std::uint32_t> out;
    out.reserve(words.size());
    for (std::uint32_t w : words) out.push_back(apply(w));
    return out;
}

std::uint64_t encoded_transitions(const LinearTransform& t,
                                  std::span<const std::uint32_t> words) {
    std::uint64_t total = 0;
    std::uint32_t prev = 0;
    for (std::uint32_t w : words) {
        const std::uint32_t enc = t.apply(w);
        total += hamming32(prev, enc);
        prev = enc;
    }
    return total;
}

}  // namespace memopt
