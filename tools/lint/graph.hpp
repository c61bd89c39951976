// memopt_lint project graph — pass 2 of the two-pass engine.
//
// The global rules consume the per-file indexes (index.hpp) as a whole:
// the include graph (L2 cycles, I1 include closures), the module layering
// DAG declared in graph.cpp (L1), and the JSON-schema goldens (S1).
// Everything here is pure set/graph computation over the pass-1 facts; it
// never re-touches tokens.
#pragma once

#include <map>
#include <set>
#include <string>
#include <vector>

#include "tools/lint/index.hpp"

namespace memopt::lint {

// ---------------------------------------------------------------------------
// Module layering (L1)

/// A layering DAG: a module may include its own headers and those of any
/// module of a strictly lower rank, so the module graph is acyclic.
struct LayeringConfig {
    std::map<std::string, int> module_layers;  // module -> rank
};

/// The repository's layering, declared once in graph.cpp. Every directory
/// under src/, plus bench, tests, examples and tools, has a rank.
const LayeringConfig& project_layering();

/// The layering module a root-relative path belongs to: the second path
/// component under src/ ("src/cache/..." -> "cache"), otherwise the first
/// component ("tests/..." -> "tests", "bench/..." -> "bench").
std::string module_of(const std::string& path);

// ---------------------------------------------------------------------------
// Include graph

/// Resolved quoted-include edges between scanned files.
struct IncludeGraph {
    /// file -> (include site array index -> resolved target path). Sites
    /// whose target does not resolve to a scanned file (system headers,
    /// generated files) are absent.
    std::map<std::string, std::map<std::size_t, std::string>> resolved;
    /// file -> resolved neighbour set (dedup'd), for traversals.
    std::map<std::string, std::vector<std::string>> edges;
};

/// Resolve each index's quoted includes against the scanned file set.
/// A target `T` in file `F` resolves to, in order: `src/T` (the project
/// include root), `T` verbatim, or `dirname(F)/T` normalized.
IncludeGraph build_include_graph(const std::map<std::string, FileIndex>& indexes);

/// Strongly connected components of the include graph with more than one
/// member (plus self-loops), each sorted, sorted by first member — the L2
/// findings' raw material.
std::vector<std::vector<std::string>> include_cycles(const IncludeGraph& graph);

// ---------------------------------------------------------------------------
// Global rule resolution (appends findings; caller sorts)

/// L1: quoted includes must follow the layering DAG `config`. Files of a
/// module without a rank are not checked.
void resolve_layering(const std::map<std::string, FileIndex>& indexes,
                      const IncludeGraph& graph, const LayeringConfig& config,
                      std::vector<Finding>& findings);

/// L2: one finding per include cycle, anchored on its lexicographically
/// smallest member.
void resolve_cycles(const IncludeGraph& graph, std::vector<Finding>& findings);

/// I1 (IWYU-lite): a quoted include is unused when no symbol its header
/// declares is referenced AND every referenced symbol reachable through its
/// include closure is also covered by the closures of the file's other
/// direct includes. A .cpp's primary header (same directory + stem) and
/// `keep-include`-annotated sites are exempt.
void resolve_unused_includes(const std::map<std::string, FileIndex>& indexes,
                             const IncludeGraph& graph, std::vector<Finding>& findings);

/// S1: per golden, the union of JSON keys its source files emit through
/// JsonWriter member()/key() literals must equal the frozen key set.
/// Unknown emitted keys anchor on the emitting line; no-longer-emitted
/// frozen keys anchor on the golden document itself.
void resolve_schemas(const std::map<std::string, FileIndex>& indexes,
                     const std::vector<SchemaGolden>& goldens,
                     std::vector<Finding>& findings);

}  // namespace memopt::lint
