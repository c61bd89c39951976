#include "support/string_util.hpp"

#include <cctype>
#include <cstdarg>
#include <cstdio>

namespace memopt {

std::string_view trim(std::string_view s) {
    std::size_t b = 0;
    std::size_t e = s.size();
    while (b < e && std::isspace(static_cast<unsigned char>(s[b]))) ++b;
    while (e > b && std::isspace(static_cast<unsigned char>(s[e - 1]))) --e;
    return s.substr(b, e - b);
}

std::vector<std::string_view> split(std::string_view s, char delim) {
    std::vector<std::string_view> out;
    std::size_t start = 0;
    for (std::size_t i = 0; i <= s.size(); ++i) {
        if (i == s.size() || s[i] == delim) {
            out.push_back(s.substr(start, i - start));
            start = i + 1;
        }
    }
    return out;
}

std::vector<std::string_view> split_ws(std::string_view s) {
    std::vector<std::string_view> out;
    std::size_t i = 0;
    while (i < s.size()) {
        while (i < s.size() && std::isspace(static_cast<unsigned char>(s[i]))) ++i;
        const std::size_t start = i;
        while (i < s.size() && !std::isspace(static_cast<unsigned char>(s[i]))) ++i;
        if (i > start) out.push_back(s.substr(start, i - start));
    }
    return out;
}

std::string to_lower(std::string_view s) {
    std::string out(s);
    for (char& c : out) c = static_cast<char>(std::tolower(static_cast<unsigned char>(c)));
    return out;
}

namespace {

/// Checked accumulate of an unsigned decimal or 0x-hex magnitude; nullopt
/// on an empty or malformed digit string and on a value above `limit`.
std::optional<std::uint64_t> parse_magnitude(std::string_view s, std::uint64_t limit) {
    int base = 10;
    if (s.size() > 2 && s[0] == '0' && (s[1] == 'x' || s[1] == 'X')) {
        base = 16;
        s.remove_prefix(2);
    }
    if (s.empty()) return std::nullopt;
    std::uint64_t acc = 0;
    for (char c : s) {
        int digit = -1;
        if (c >= '0' && c <= '9') digit = c - '0';
        else if (base == 16 && c >= 'a' && c <= 'f') digit = c - 'a' + 10;
        else if (base == 16 && c >= 'A' && c <= 'F') digit = c - 'A' + 10;
        if (digit < 0 || digit >= base) return std::nullopt;
        const auto d = static_cast<std::uint64_t>(digit);
        if (acc > (limit - d) / static_cast<std::uint64_t>(base)) return std::nullopt;
        acc = acc * static_cast<std::uint64_t>(base) + d;
    }
    return acc;
}

}  // namespace

std::optional<std::int64_t> parse_int(std::string_view s) {
    s = trim(s);
    bool neg = false;
    if (!s.empty() && (s.front() == '-' || s.front() == '+')) {
        neg = s.front() == '-';
        s.remove_prefix(1);
    }
    // The magnitude may reach 2^63 only when negative.
    const auto magnitude =
        parse_magnitude(s, neg ? std::uint64_t{1} << 63 : std::uint64_t{INT64_MAX});
    if (!magnitude) return std::nullopt;
    return static_cast<std::int64_t>(neg ? 0 - *magnitude : *magnitude);
}

std::optional<std::uint64_t> parse_u64(std::string_view s) {
    return parse_magnitude(trim(s), UINT64_MAX);
}

std::string format(const char* fmt, ...) {
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    const int needed = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (needed > 0) {
        out.resize(static_cast<std::size_t>(needed));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return out;
}

std::string format_bytes(std::uint64_t bytes) {
    if (bytes >= (1ULL << 20) && bytes % (1ULL << 20) == 0)
        return format("%llu MiB", static_cast<unsigned long long>(bytes >> 20));
    if (bytes >= (1ULL << 10) && bytes % (1ULL << 10) == 0)
        return format("%llu KiB", static_cast<unsigned long long>(bytes >> 10));
    return format("%llu B", static_cast<unsigned long long>(bytes));
}

std::string format_fixed(double v, int decimals) { return format("%.*f", decimals, v); }

std::string format_energy_pj(double pj) {
    const double abs = pj < 0 ? -pj : pj;
    if (abs >= 1e9) return format("%.3f mJ", pj / 1e9);
    if (abs >= 1e6) return format("%.3f uJ", pj / 1e6);
    if (abs >= 1e3) return format("%.3f nJ", pj / 1e3);
    return format("%.1f pJ", pj);
}

}  // namespace memopt
