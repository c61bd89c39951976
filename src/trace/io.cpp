#include "trace/io.hpp"

#include <fstream>
#include <istream>
#include <ostream>

#include "support/string_util.hpp"
#include "trace/source.hpp"

namespace memopt {

namespace {

void write_text_chunk(std::ostream& os, const TraceChunk& chunk) {
    for (std::size_t i = 0; i < chunk.size(); ++i) {
        os << (chunk.kinds[i] == AccessKind::Read ? 'R' : 'W') << " 0x" << std::hex
           << chunk.addrs[i] << std::dec << ' ' << static_cast<unsigned>(chunk.sizes[i])
           << ' ' << chunk.cycles[i] << " 0x" << std::hex << chunk.values[i] << std::dec
           << '\n';
    }
}

}  // namespace

void write_trace_text(std::ostream& os, TraceSource& source) {
    os << "# memopt trace v1: kind addr size cycle value\n";
    source.reset();
    TraceChunk chunk;
    while (source.next(chunk)) write_text_chunk(os, chunk);
}

MemTrace read_trace_text(std::istream& is) {
    MemTrace trace;
    std::string line;
    int line_no = 0;
    while (std::getline(is, line)) {
        ++line_no;
        std::string_view text = trim(line);
        if (const auto hash = text.find('#'); hash != std::string_view::npos)
            text = trim(text.substr(0, hash));
        if (text.empty()) continue;
        const auto fields = split_ws(text);
        require(fields.size() >= 2 && fields.size() <= 5,
                format("trace text line %d: expected 2..5 fields", line_no));
        MemAccess access;
        const std::string kind = to_lower(fields[0]);
        if (kind == "r") {
            access.kind = AccessKind::Read;
        } else if (kind == "w") {
            access.kind = AccessKind::Write;
        } else {
            throw Error(format("trace text line %d: kind must be R or W", line_no));
        }
        const auto addr = parse_u64(fields[1]);
        require(addr.has_value(), format("trace text line %d: bad address", line_no));
        access.addr = *addr;
        if (fields.size() >= 3) {
            const auto size = parse_int(fields[2]);
            require(size && (*size == 1 || *size == 2 || *size == 4 || *size == 8),
                    format("trace text line %d: bad size", line_no));
            access.size = static_cast<std::uint8_t>(*size);
        }
        if (fields.size() >= 4) {
            const auto cycle = parse_u64(fields[3]);
            require(cycle.has_value(), format("trace text line %d: bad cycle", line_no));
            access.cycle = *cycle;
        }
        if (fields.size() >= 5) {
            const auto value = parse_int(fields[4]);
            require(value.has_value(), format("trace text line %d: bad value", line_no));
            // Values are 32-bit words; a silent truncation here would make
            // the compression/encoding results of a round-tripped trace
            // differ from the original.
            require(*value >= 0 && *value <= 0xFFFFFFFFLL,
                    format("trace text line %d: value out of 32-bit range", line_no));
            access.value = static_cast<std::uint32_t>(*value);
        }
        trace.add(access);
    }
    return trace;
}

void reject_retired_trace_format(const std::string& path) {
    if (path.ends_with(".mtrc"))
        throw Error("'" + path +
                    "': the .mtrc trace format is retired; use a .mtsc container or a "
                    "text trace instead");
}

MemTrace load_trace(const std::string& path) {
    reject_retired_trace_format(path);
    std::ifstream is(path);
    require(is.is_open(), "load_trace: cannot open '" + path + "'");
    return read_trace_text(is);
}

}  // namespace memopt
