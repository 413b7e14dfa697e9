"""Layering: enforce the declared module DAG over the include graph.

The declared DAG (docs/ANALYSIS.md §layering) follows the dependency
spine util → runtime → {sched, trace, perf} → {sim, verify} → harness,
with machine and kernels as leaf modules (machine above util only;
kernels above the runtime fork/join API only). ALLOWED maps
each module to the full set of modules it may include from; an edge
not in the map is a finding, whether it points upward (a lower layer
reaching into a higher one) or sideways into a module never declared
as a dependency.

Deliberate exceptions live in EXCEPTIONS as (file, target-module)
pairs with a stated reason — the allowlist the rule text requires —
and are reported as stale when the edge they bless disappears. A
module named in ALLOWED (as a key or as a dependency) with no
src/<module>/ directory is reported as stale the same way, so the DAG
cannot outlive the code it describes.

Two cycle checks back the DAG:
  - module-level cycles in the *extracted* graph (these would make any
    layer assignment impossible), and
  - file-level include cycles among headers (a header cycle breaks
    whichever include order a TU happens to use, even when each edge
    is individually legal).
"""

import os

from .findings import Finding

# Where ALLOWED is declared; stale-module findings point at its entries.
DAG_FILE = "tools/analyze/layering.py"

# module -> modules it may include from (besides itself).
ALLOWED = {
    "util": set(),
    "perf": set(),                 # standalone PMU wrapper
    "machine": {"util"},           # leaf: topology/config parsing
    "trace": {"util"},             # event substrate under the engines
    "runtime": {"util", "machine"},
    "sched": {"util", "machine", "trace", "runtime"},
    "kernels": {"util", "runtime"},  # leaf workloads: fork/join API only
    "sim": {"util", "machine", "trace", "runtime", "sched"},
    "verify": {"util", "machine", "trace", "runtime", "sched"},
    "harness": {"util", "machine", "trace", "runtime", "sched", "kernels",
                "perf", "sim", "verify"},
}

# (file, target module) -> reason. Edges here are deliberate and
# documented; an entry whose edge no longer exists is itself flagged so
# the allowlist cannot rot.
EXCEPTIONS = {
    ("src/runtime/thread_pool.h", "trace"):
        "per-worker ring recorders are embedded in the pool (PR 1-2); "
        "inverting the edge needs a hook layer nothing else wants yet",
}


def run(repo):
    findings = []
    edges = repo.include_edges()
    used_exceptions = set()
    module_edges = {}  # (from_mod, to_mod) -> first (rel, line)

    for rel, inc, target in edges:
        src_mod = repo.files[rel].module
        dst_mod = repo.files[target].module
        if src_mod is None or dst_mod is None or src_mod == dst_mod:
            continue
        module_edges.setdefault((src_mod, dst_mod), (rel, inc.line))
        if dst_mod in ALLOWED.get(src_mod, set()):
            continue
        if (rel, dst_mod) in EXCEPTIONS:
            used_exceptions.add((rel, dst_mod))
            continue
        direction = ("upward" if _rank(dst_mod) >= _rank(src_mod)
                     else "undeclared")
        findings.append(Finding(
            rel, inc.line, "layering",
            f"{direction} include: module `{src_mod}` may not depend on "
            f"`{dst_mod}` (declared DAG in tools/analyze/layering.py; "
            f"include of \"{inc.target}\")"))

    for (rel, dst_mod), reason in sorted(EXCEPTIONS.items()):
        if (rel, dst_mod) not in used_exceptions and rel in repo.files:
            findings.append(Finding(
                rel, 1, "layering",
                f"stale layering exception: {rel} no longer includes from "
                f"`{dst_mod}` — drop the EXCEPTIONS entry ({reason})"))

    findings.extend(_stale_modules(repo))
    findings.extend(_module_cycles(module_edges))
    findings.extend(_header_cycles(repo))
    return findings


def _stale_modules(repo):
    """Modules declared in ALLOWED that have no src/<module>/ directory."""
    src = os.path.join(repo.root, "src")
    present = ({d for d in os.listdir(src)
                if os.path.isdir(os.path.join(src, d))}
               if os.path.isdir(src) else set())
    declared = set(ALLOWED).union(*ALLOWED.values())
    findings = []
    for mod in sorted(declared - present):
        findings.append(Finding(
            DAG_FILE, _declared_line(mod), "layering",
            f"stale layering module: `{mod}` is in the declared DAG but "
            f"src/{mod}/ does not exist — drop it from ALLOWED"))
    return findings


def _declared_line(mod):
    """First line of the ALLOWED map that names `mod`."""
    with open(__file__, encoding="utf-8") as f:
        lines = f.read().split("\n")
    start = next(i for i, l in enumerate(lines) if l.startswith("ALLOWED"))
    return 1 + next(i for i in range(start, len(lines))
                    if f'"{mod}"' in lines[i])


def _rank(mod):
    """Topological depth of a module in the declared DAG (for wording
    findings as upward vs undeclared only)."""
    seen = set()

    def depth(m):
        if m in seen:
            return 0  # defensive: ALLOWED is acyclic by construction
        seen.add(m)
        deps = ALLOWED.get(m, set())
        return 1 + max((depth(d) for d in deps), default=-1)

    return depth(mod)


def _module_cycles(module_edges):
    """Cycles in the extracted module graph (reported once per cycle)."""
    graph = {}
    for (a, b), _ in module_edges.items():
        graph.setdefault(a, set()).add(b)
    findings = []
    for cycle in _find_cycles(graph):
        a, b = cycle[0], cycle[1]
        rel, line = module_edges[(a, b)]
        findings.append(Finding(
            rel, line, "layering",
            "module cycle in the extracted include graph: "
            + " -> ".join(cycle + (cycle[0],))))
    return findings


def _header_cycles(repo):
    graph = {}
    for rel, _, target in repo.include_edges():
        if rel.endswith((".h", ".hpp")):
            graph.setdefault(rel, set()).add(target)
    findings = []
    for cycle in _find_cycles(graph):
        findings.append(Finding(
            cycle[0], 1, "layering",
            "header include cycle: " + " -> ".join(cycle + (cycle[0],))))
    return findings


def _find_cycles(graph):
    """Distinct elementary cycles, each reported from its least node."""
    cycles = set()
    state = {}  # node -> 1 (on stack) / 2 (done)
    stack = []

    def visit(node):
        state[node] = 1
        stack.append(node)
        for nxt in sorted(graph.get(node, ())):
            if state.get(nxt) == 1:
                cyc = stack[stack.index(nxt):]
                lo = cyc.index(min(cyc))
                cycles.add(tuple(cyc[lo:] + cyc[:lo]))
            elif nxt not in state:
                visit(nxt)
        stack.pop()
        state[node] = 2

    for node in sorted(graph):
        if node not in state:
            visit(node)
    return sorted(cycles)
