// Trace (de)serialization.
//
// Lets external simulators feed traces into memopt and lets long traces be
// captured once and replayed across experiments. This file holds the text
// format — one access per line: "R|W <hex addr> <size> <cycle> <hex
// value>". It is human-readable and diffable; columns after addr are
// optional on input (defaults: size 4, cycle 0, value 0), and '#' starts a
// comment. Numbers are decimal or 0x-hex: address and cycle take any
// unsigned 64-bit value, size is 1, 2, 4 or 8, and value is a 32-bit word.
// Traces too large for text go into the ".mtsc" block container
// (trace/stream_file.hpp).
#pragma once

#include <iosfwd>
#include <string>

#include "trace/trace.hpp"

namespace memopt {

class TraceSource;

/// Write a chunked trace stream in the text format without materializing
/// it (O(chunk) memory).
void write_trace_text(std::ostream& os, TraceSource& source);

/// Parse the text format. Throws memopt::Error with a line number on any
/// malformed record.
MemTrace read_trace_text(std::istream& is);

/// Throw memopt::Error if `path` names a ".mtrc" file: that flat binary
/// format is retired, and the message points at the ".mtsc" container.
void reject_retired_trace_format(const std::string& path);

/// Read a text-format file. Throws memopt::Error if the file cannot be
/// opened or `path` ends in ".mtrc" (see reject_retired_trace_format).
MemTrace load_trace(const std::string& path);

}  // namespace memopt
