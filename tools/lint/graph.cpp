#include "tools/lint/graph.hpp"

#include <algorithm>
#include <functional>
#include <initializer_list>

namespace memopt::lint {

namespace {

/// Collapse "." and ".." path components ('/' separators assumed).
std::string normalize_path(const std::string& p) {
    std::vector<std::string> parts;
    std::string part;
    for (std::size_t i = 0; i <= p.size(); ++i) {
        const char c = i < p.size() ? p[i] : '/';
        if (c == '/') {
            if (part == "..") {
                if (!parts.empty()) parts.pop_back();
            } else if (!part.empty() && part != ".") {
                parts.push_back(part);
            }
            part.clear();
        } else {
            part += c;
        }
    }
    std::string out;
    for (const std::string& s : parts) {
        if (!out.empty()) out += '/';
        out += s;
    }
    return out;
}

std::string dirname_of(const std::string& p) {
    const std::size_t slash = p.rfind('/');
    return slash == std::string::npos ? std::string() : p.substr(0, slash);
}

std::string strip_extension(const std::string& p) {
    const std::size_t slash = p.rfind('/');
    const std::size_t dot = p.rfind('.');
    if (dot == std::string::npos || (slash != std::string::npos && dot < slash)) return p;
    return p.substr(0, dot);
}

bool is_implementation_file(const std::string& p) {
    return p.ends_with(".cpp") || p.ends_with(".cc") || p.ends_with(".cxx");
}

}  // namespace

// The repository's growth contract: support has no dependencies; the line
// codecs, the energy models and the ISA stand only on support; the trace
// substrate (whose .mtsc container reuses the codecs) and the passes that
// need no trace stand on those; the replays, clustering and simulator
// stand on the trace; partitioning places clusters on banks; fault
// campaigns run on a partition; core orchestrates everything; the lint
// engine sits in tools, which the tests and perf_micro drive in-process.
const LayeringConfig& project_layering() {
    static const LayeringConfig config = [] {
        LayeringConfig c;
        const auto rank = [&c](int r, std::initializer_list<const char*> modules) {
            for (const char* m : modules) c.module_layers.emplace(m, r);
        };
        rank(0, {"support"});
        rank(1, {"compress", "energy", "isa"});
        rank(2, {"trace", "encoding", "sched", "lang"});
        rank(3, {"cache", "cluster", "sim"});
        rank(4, {"partition"});
        rank(5, {"fault"});
        rank(6, {"core"});
        rank(7, {"tools"});
        rank(8, {"bench", "examples", "tests"});
        return c;
    }();
    return config;
}

std::string module_of(const std::string& path) {
    std::vector<std::string> parts;
    std::string part;
    for (std::size_t i = 0; i <= path.size(); ++i) {
        const char c = i < path.size() ? path[i] : '/';
        if (c == '/') {
            if (!part.empty()) parts.push_back(part);
            part.clear();
        } else {
            part += c;
        }
    }
    if (parts.empty()) return {};
    if (parts[0] == "src" && parts.size() >= 2) return parts[1];
    return parts[0];
}

IncludeGraph build_include_graph(const std::map<std::string, FileIndex>& indexes) {
    IncludeGraph graph;
    for (const auto& [path, idx] : indexes) {
        std::set<std::string> neighbours;
        for (std::size_t s = 0; s < idx.includes.size(); ++s) {
            const IncludeSite& site = idx.includes[s];
            if (site.system) continue;
            std::string resolved;
            for (const std::string& candidate :
                 {std::string("src/") + site.target, site.target,
                  normalize_path(dirname_of(path) + "/" + site.target)}) {
                if (indexes.count(candidate) != 0) {
                    resolved = candidate;
                    break;
                }
            }
            if (resolved.empty()) continue;
            graph.resolved[path][s] = resolved;
            neighbours.insert(std::move(resolved));
        }
        graph.edges[path].assign(neighbours.begin(), neighbours.end());
    }
    return graph;
}

std::vector<std::vector<std::string>> include_cycles(const IncludeGraph& graph) {
    // Tarjan SCC, recursive. Include chains are shallow (tens of frames at
    // worst), so recursion depth is not a concern at repo scale.
    struct State {
        int index = -1;
        int lowlink = 0;
        bool on_stack = false;
    };
    std::map<std::string, State> state;
    std::vector<std::string> stack;
    std::vector<std::vector<std::string>> cycles;
    int counter = 0;

    std::function<void(const std::string&)> strongconnect = [&](const std::string& v) {
        State& sv = state[v];
        sv.index = sv.lowlink = counter++;
        sv.on_stack = true;
        stack.push_back(v);

        const auto it = graph.edges.find(v);
        if (it != graph.edges.end()) {
            for (const std::string& w : it->second) {
                State& sw = state[w];
                if (sw.index < 0) {
                    strongconnect(w);
                    sv.lowlink = std::min(sv.lowlink, state[w].lowlink);
                } else if (sw.on_stack) {
                    sv.lowlink = std::min(sv.lowlink, sw.index);
                }
            }
        }
        if (sv.lowlink == sv.index) {
            std::vector<std::string> component;
            for (;;) {
                std::string w = stack.back();
                stack.pop_back();
                state[w].on_stack = false;
                const bool done = w == v;
                component.push_back(std::move(w));
                if (done) break;
            }
            bool self_loop = false;
            if (component.size() == 1) {
                const auto eit = graph.edges.find(component[0]);
                self_loop = eit != graph.edges.end() &&
                            std::find(eit->second.begin(), eit->second.end(),
                                      component[0]) != eit->second.end();
            }
            if (component.size() > 1 || self_loop) {
                std::sort(component.begin(), component.end());
                cycles.push_back(std::move(component));
            }
        }
    };

    for (const auto& [v, _] : graph.edges) {
        if (state[v].index < 0) strongconnect(v);
    }
    std::sort(cycles.begin(), cycles.end());
    return cycles;
}

void resolve_layering(const std::map<std::string, FileIndex>& indexes,
                      const IncludeGraph& graph, const LayeringConfig& config,
                      std::vector<Finding>& findings) {
    for (const auto& [path, idx] : indexes) {
        const std::string from = module_of(path);
        const auto layer_from = config.module_layers.find(from);
        if (layer_from == config.module_layers.end()) continue;  // unmapped module
        const auto rit = graph.resolved.find(path);
        if (rit == graph.resolved.end()) continue;
        for (const auto& [site_idx, target_path] : rit->second) {
            const IncludeSite& site = idx.includes[site_idx];
            if (site.layer_exempt) continue;
            const std::string to = module_of(target_path);
            if (to == from) continue;
            const auto layer_to = config.module_layers.find(to);
            if (layer_to == config.module_layers.end()) continue;
            if (layer_to->second < layer_from->second) continue;
            findings.push_back(Finding{
                path, site.line, "L1",
                "include of '" + site.target + "' violates the layering DAG: module '" +
                    from + "' (layer " + std::to_string(layer_from->second) +
                    ") may not depend on '" + to + "' (layer " +
                    std::to_string(layer_to->second) +
                    "); invert the dependency or move the shared piece to a lower layer"});
        }
    }
}

void resolve_cycles(const IncludeGraph& graph, std::vector<Finding>& findings) {
    for (const std::vector<std::string>& cycle : include_cycles(graph)) {
        std::string members;
        for (const std::string& m : cycle) {
            if (!members.empty()) members += " -> ";
            members += m;
        }
        findings.push_back(Finding{
            cycle.front(), 1, "L2",
            "include cycle: " + members + " -> " + cycle.front() +
                "; break it with a forward declaration or by splitting the shared "
                "interface into its own header"});
    }
}

void resolve_unused_includes(const std::map<std::string, FileIndex>& indexes,
                             const IncludeGraph& graph, std::vector<Finding>& findings) {
    // closure_syms[H] = every symbol declared by H or anything reachable
    // from H through resolved quoted includes (H inclusive). Memoized
    // across the whole scan — headers are shared, files are many.
    std::map<std::string, std::set<std::string>> closure_syms;
    std::function<const std::set<std::string>&(const std::string&)> closure =
        [&](const std::string& h) -> const std::set<std::string>& {
        const auto hit = closure_syms.find(h);
        if (hit != closure_syms.end()) return hit->second;
        // Insert the entry first so include cycles terminate (the partial
        // set is a sound under-approximation during the recursion).
        std::set<std::string>& syms = closure_syms[h];
        const auto idx = indexes.find(h);
        if (idx != indexes.end()) {
            syms.insert(idx->second.declared_symbols.begin(),
                        idx->second.declared_symbols.end());
        }
        const auto eit = graph.edges.find(h);
        if (eit != graph.edges.end()) {
            for (const std::string& next : eit->second) {
                if (next == h) continue;
                const std::set<std::string>& sub = closure(next);
                // `syms` may have been rehashed-free (std::set), but take a
                // fresh reference in case the recursive call added to it.
                closure_syms[h].insert(sub.begin(), sub.end());
            }
        }
        return closure_syms[h];
    };

    for (const auto& [path, idx] : indexes) {
        const auto rit = graph.resolved.find(path);
        if (rit == graph.resolved.end()) continue;
        const std::set<std::string> used(idx.used_identifiers.begin(),
                                         idx.used_identifiers.end());
        const std::string own_stem = strip_extension(path);

        for (const auto& [site_idx, target_path] : rit->second) {
            const IncludeSite& site = idx.includes[site_idx];
            if (site.keep_annotated) continue;
            // A .cpp keeps its primary header unconditionally: it is the
            // declaration/definition pairing, not a symbol import.
            if (is_implementation_file(path) && strip_extension(target_path) == own_stem)
                continue;

            const auto target_idx = indexes.find(target_path);
            if (target_idx == indexes.end()) continue;

            // Directly-declared symbol referenced -> used, done.
            bool direct_use = false;
            for (const std::string& s : target_idx->second.declared_symbols) {
                if (used.count(s) != 0) {
                    direct_use = true;
                    break;
                }
            }
            if (direct_use) continue;

            // Referenced symbols this include provides only transitively.
            std::vector<std::string> transitive_needs;
            for (const std::string& s : closure(target_path)) {
                if (used.count(s) != 0) transitive_needs.push_back(s);
            }

            if (!transitive_needs.empty()) {
                // Keep unless every one of those symbols also arrives via
                // the file's other direct includes.
                std::set<std::string> covered;
                for (const auto& [other_idx, other_path] : rit->second) {
                    if (other_idx == site_idx) continue;
                    const std::set<std::string>& sub = closure(other_path);
                    covered.insert(sub.begin(), sub.end());
                }
                bool all_covered = true;
                for (const std::string& s : transitive_needs) {
                    if (covered.count(s) == 0) {
                        all_covered = false;
                        break;
                    }
                }
                if (!all_covered) continue;
            }

            findings.push_back(Finding{
                path, site.line, "I1",
                "unused include '" + site.target +
                    "': nothing it declares (directly, or transitively beyond what the "
                    "other includes already provide) is referenced here; drop it or "
                    "annotate `memopt-lint: keep-include` with a rationale"});
        }
    }
}

void resolve_schemas(const std::map<std::string, FileIndex>& indexes,
                     const std::vector<SchemaGolden>& goldens,
                     std::vector<Finding>& findings) {
    for (const SchemaGolden& golden : goldens) {
        // First emission site per key, in sorted (source, line) order.
        std::map<std::string, std::pair<std::string, int>> emitted;
        std::vector<std::string> sources(golden.sources);
        std::sort(sources.begin(), sources.end());
        for (const std::string& source : sources) {
            const auto it = indexes.find(source);
            if (it == indexes.end()) {
                findings.push_back(Finding{
                    golden.path, 1, "S1",
                    "schema " + golden.id + " lists source '" + source +
                        "' which is not in the scanned tree; fix the golden's sources"});
                continue;
            }
            for (const FileIndex::JsonKey& k : it->second.json_keys) {
                emitted.emplace(k.key, std::make_pair(source, k.line));
            }
        }
        for (const auto& [key, where] : emitted) {
            if (golden.keys.count(key) != 0) continue;
            findings.push_back(Finding{
                where.first, where.second, "S1",
                "JSON key '" + key + "' is not part of frozen schema " + golden.id + " (" +
                    golden.path +
                    "); update the golden in the same change or stop emitting the key"});
        }
        for (const std::string& key : golden.keys) {
            if (emitted.count(key) != 0) continue;
            findings.push_back(Finding{
                golden.path, 1, "S1",
                "frozen key '" + key + "' of schema " + golden.id +
                    " is no longer emitted by any of its sources; remove it from the "
                    "golden or restore the writer"});
        }
    }
}

}  // namespace memopt::lint
