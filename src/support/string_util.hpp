// String helpers shared by the assembler, table printer and report writers.
#pragma once

#include <cstdint>
#include <functional>
#include <iterator>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "support/assert.hpp"

namespace memopt {

/// Strip leading/trailing ASCII whitespace.
std::string_view trim(std::string_view s);

/// Split on a delimiter character; empty fields are preserved.
std::vector<std::string_view> split(std::string_view s, char delim);

/// Split on runs of whitespace; empty fields are dropped.
std::vector<std::string_view> split_ws(std::string_view s);

/// ASCII lower-casing.
std::string to_lower(std::string_view s);

/// Parse a signed 64-bit integer. Accepts decimal, 0x-hex and a leading '-'.
/// Returns nullopt on any malformed input (including trailing junk) and on
/// any value outside [INT64_MIN, INT64_MAX].
std::optional<std::int64_t> parse_int(std::string_view s);

/// Parse an unsigned 64-bit integer: decimal or 0x-hex, no sign. Returns
/// nullopt on any malformed input and on any value above UINT64_MAX.
std::optional<std::uint64_t> parse_u64(std::string_view s);

/// The entry of `value` in a per-enum table: one entry (a name, or a row
/// holding one) per enumerator, in declaration order.
template <typename Table, typename Enum>
const auto& enum_entry(const Table& table, Enum value) {
    const auto i = static_cast<std::size_t>(value);
    MEMOPT_ASSERT_MSG(i < std::size(table), "enum value outside its table");
    return table[i];
}

/// The enumerator whose entry in a per-enum table is named `name`, or
/// nullopt; `name_of` reads the name of a row.
template <typename Enum, typename Table, typename NameOf = std::identity>
std::optional<Enum> parse_enum(const Table& table, std::string_view name, NameOf name_of = {}) {
    for (std::size_t i = 0; i < std::size(table); ++i)
        if (std::invoke(name_of, table[i]) == name) return static_cast<Enum>(i);
    return std::nullopt;
}

/// printf-style formatting into a std::string.
std::string format(const char* fmt, ...) __attribute__((format(printf, 1, 2)));

/// Human-readable byte size ("256 B", "4 KiB", "1 MiB").
std::string format_bytes(std::uint64_t bytes);

/// Fixed-precision double ("12.34").
std::string format_fixed(double v, int decimals);

/// Engineering formatting of an energy value expressed in picojoules
/// ("853 pJ", "1.27 nJ", "3.5 uJ").
std::string format_energy_pj(double pj);

}  // namespace memopt
