// Error handling primitives for the memopt library.
//
// Two distinct mechanisms, per the C++ Core Guidelines (E.*):
//  * memopt::Error  — exception thrown on API misuse and environmental
//                     failures (bad arguments, parse errors, I/O). These are
//                     recoverable by the caller.
//  * MEMOPT_ASSERT  — internal invariant check; a failure indicates a bug in
//                     the library itself and aborts with a diagnostic.
#pragma once

#include <stdexcept>
#include <string>

namespace memopt {

/// Exception type thrown by all memopt public APIs on recoverable errors.
class Error : public std::runtime_error {
public:
    explicit Error(const std::string& what_arg) : std::runtime_error(what_arg) {}
};

namespace detail {
[[noreturn]] void assert_fail(const char* expr, const char* file, int line, const std::string& msg);
}

/// Throw memopt::Error with the given message if `cond` is false.
/// Use for validating caller-supplied arguments. A literal message binds
/// to this overload and is only turned into a std::string when the check
/// fails, so a passing check never allocates.
inline void require(bool cond, const char* msg) {
    if (!cond) throw Error(msg);
}

/// As above, for composed messages (format(...), concatenations).
inline void require(bool cond, const std::string& msg) {
    if (!cond) throw Error(msg);
}

}  // namespace memopt

/// Internal invariant check: aborts the process with a diagnostic on failure.
/// Enabled in all build types — these guards are part of the library's
/// correctness story and are cheap relative to the algorithms they protect.
#define MEMOPT_ASSERT(cond)                                                      \
    do {                                                                         \
        if (!(cond)) ::memopt::detail::assert_fail(#cond, __FILE__, __LINE__, ""); \
    } while (false)

/// Invariant check with an explanatory message (std::string or literal).
#define MEMOPT_ASSERT_MSG(cond, msg)                                                \
    do {                                                                            \
        if (!(cond)) ::memopt::detail::assert_fail(#cond, __FILE__, __LINE__, (msg)); \
    } while (false)
