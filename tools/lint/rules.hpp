// memopt_lint rule catalogue — project invariants as named, suppressible
// static checks.
//
// Every headline result in this repository depends on replay, clustering,
// search, and campaign results being bit-identical at any --jobs count.
// These rules make the hazards that historically break that invariant
// (unordered-container iteration feeding results, ambient entropy sources,
// racy accumulation), plus the architectural contracts the next subsystems
// stand on (module layering, include hygiene, frozen JSON schemas),
// machine-checked at lint time instead of discovered at replay time.
//
// Token-local rules (checked per file, from its tokens alone):
//  D2  no nondeterministic seed sources (std::random_device, time(),
//      rand(), srand()) outside src/support/rng — all randomness flows
//      from an explicit memopt::Rng seed.
//  D3  floating-point accumulation into shared (captured) state inside
//      parallel_for / parallel_map / submit / stream_accumulate lambdas
//      must go through shard-local partial sums reduced in order.
//  D4  no std::atomic<float|double>: atomic FP read-modify-write makes the
//      accumulation order scheduling-dependent by construction.
//  D5  no compound mutation (`+=`, `++`, …) of captured state inside
//      parallel lambdas at all — the type-agnostic generalization of D3:
//      even an exact integer tally is a data race unless it is shard-local
//      or lock-protected (annotate `memopt-lint: guarded` with the lock).
//  R1  final artifacts are published through the durable layer
//      (atomic_write / AtomicOstream, support/durable/atomic_file.hpp).
//  A1  invariant checks use MEMOPT_ASSERT / MEMOPT_ASSERT_MSG, never raw
//      assert( — raw assert vanishes under NDEBUG and prints no context.
//  H1  header hygiene: every header starts with #pragma once (or a classic
//      include guard) and contains no `using namespace`.
//
// Project-wide rules (need the semantic index, resolved by the driver):
//  D1  iteration over std::unordered_map/unordered_set that feeds results
//      must be sorted before order-sensitive consumption or carry a
//      `// memopt-lint: order-independent` annotation. Member containers
//      (trailing '_') are recognized across files via the index union.
//  L1  module layering: a file may include only its own module or a
//      module of a strictly lower rank in the declared DAG
//      (project_layering() in graph.cpp); same-rank and upward includes
//      are findings.
//  L2  the include graph is acyclic; every cycle is a finding on its
//      lexicographically-smallest member.
//  I1  IWYU-lite: a quoted include no symbol of which (directly or via its
//      include closure, net of other includes) is referenced is unused;
//      intentional keeps annotate `memopt-lint: keep-include` with a
//      rationale.
//  S1  JSON-schema freeze: the keys emitted through JsonWriter
//      member("…")/key("…") literals in each schema's source files must
//      equal the checked-in golden (docs/schemas/<id>.json); a key added
//      or removed without updating the golden is a finding that names
//      the key, and a deliberate change edits the golden's key list.
//
// Suppression: a finding on line L is suppressed by an annotation comment
// `// memopt-lint: <word>` on line L or L-1, where <word> is the rule id
// (e.g. `D1`) or the rule's named allowance (`order-independent` for
// D1/D3, `guarded` for D5, `durable-write` for R1, `keep-include` for I1,
// `layering` for L1). There is no other suppression: every finding that
// survives the annotations fails the run.
#pragma once

#include <set>
#include <string>
#include <vector>

#include "tools/lint/tokenizer.hpp"

namespace memopt::lint {

struct Finding {
    std::string file;
    int line = 0;
    std::string rule;
    std::string message;

    /// Canonical diagnostic rendering: `file:line: rule: message`.
    std::string render() const;
};

struct RuleInfo {
    const char* id;
    const char* summary;
};

/// The rule catalogue, in report order.
const std::vector<RuleInfo>& rule_catalogue();

/// One D1 candidate: an identifier in iteration position (range-for range
/// expression or a .begin()-family call). Sites sharing a `group` belong to
/// one range-for — only the first whose name resolves to an unordered
/// container emits. `suppressed` records the annotation state at the site,
/// so pass 2 keeps annotation semantics without tokens.
struct D1Site {
    std::string name;
    int line = 0;
    int group = 0;
    bool suppressed = false;
};

/// All D1 candidates in `file`, in token order.
std::vector<D1Site> collect_d1_sites(const SourceFile& file);

/// Names declared as unordered containers in `file` (locals, parameters,
/// members — everything D1 may match in-file).
std::set<std::string> collect_unordered_locals(const SourceFile& file);

/// Member-style names (trailing '_') declared as unordered containers in
/// `file`. The driver unions these across all scanned files so that a
/// container member declared in a header is recognized when its .cpp
/// iterates it (rule D1's cross-file case).
std::set<std::string> collect_unordered_members(const SourceFile& file);

/// Resolve D1 candidates against the full name set (file-local unordered
/// declarations plus the cross-file member union), appending findings.
void resolve_d1(const std::string& path, const std::vector<D1Site>& sites,
                const std::set<std::string>& names, std::vector<Finding>& findings);

/// Run the token-local rules (D2–D5, R1, A1, H1) against one file.
/// Findings suppressed by annotations are dropped here.
void check_local(const SourceFile& file, std::vector<Finding>& findings);

/// Single-file convenience used by tests and in-isolation lints: the
/// token-local rules plus D1 resolved against this file's declarations
/// unioned with `cross_file_members`.
void check_file(const SourceFile& file, const std::set<std::string>& cross_file_members,
                std::vector<Finding>& findings);

}  // namespace memopt::lint
