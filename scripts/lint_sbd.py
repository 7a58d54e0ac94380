#!/usr/bin/env python3
"""Project-specific structural lints for the sbd tree (stdlib only).

Three rules, each encoding an invariant the type system cannot:

1. node-construction: `RegexNode{...}` / `TrNode{...}` aggregates (and
   `Nodes.push_back` / `Nodes.emplace_back` on the arenas) may appear only
   in the two intern sites — src/re/Regex.cpp and src/core/TransitionRegex.cpp.
   Everywhere else must go through the smart constructors, or hash-consing
   (and with it the similarity laws of paper section 3) silently breaks.

2. hot-path-containers: files carrying a `// sbd-lint: hot-path` marker must
   not use std::unordered_map / std::unordered_set. Hot paths use the
   open-addressing InternTable/FlatMap64 (DESIGN.md section 7); a stray
   node-based hash table is an easy way to lose the PR-1 speedups.

3. obs-compiled-out: outside the observability layer itself, counter bumps
   must use the SBD_OBS_INC/SBD_OBS_ADD/SBD_OBS_HIST/SBD_OBS_STAT_INC macros
   (which all compile out under -DSBD_OBS=0), never raw obs::tlsShard() /
   MetricShard::add / ShardRegistry::local() calls that would survive in
   "observability off" builds.

4. engine-routing: the solver/SMT/policy layers must not instantiate the
   baseline engines (AntimirovSolver, BrzozowskiMintermSolver, EagerSolver)
   directly — engine selection belongs to the analyzer-driven portfolio
   (src/portfolio, DESIGN.md section 14). An ad-hoc engine pick bypasses
   the admission cap and the routing regression gates.

Exit status: 0 clean, 1 violations (printed as file:line: rule: message).
"""

import re
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

# Rule 1: the only files allowed to construct arena nodes directly.
INTERN_SITES = {
    SRC / "re" / "Regex.cpp",
    SRC / "core" / "TransitionRegex.cpp",
}
# Other managers (BoolExprManager, BddManager) hash-cons their *own* node
# types; their `Nodes.push_back` is their intern site, not a bypass.
OWN_ARENA_SITES = INTERN_SITES | {
    SRC / "automata" / "BoolExpr.cpp",
    SRC / "charset" / "Bdd.cpp",
}
NODE_CTOR = re.compile(r"\b(?:RegexNode|TrNode)\s*\{")
TYPE_DECL = re.compile(r"^\s*(?:struct|class)\s+(?:RegexNode|TrNode)\b")
ARENA_PUSH = re.compile(r"\bNodes\.(?:push_back|emplace_back)\s*\(")

# Rule 2: marker and the banned containers.
HOT_PATH_MARKER = "sbd-lint: hot-path"
UNORDERED = re.compile(r"\bstd::unordered_(?:map|set)\b|#include\s*<unordered_(?:map|set)>")

# Rule 3: raw shard access outside the obs layer. The macros themselves and
# the registry/exposition implementation are the allowlist; Audit.h
# publishes through SBD_OBS_ADD so it needs no exemption. The histogram
# shard accessor and the shared registry's local() are covered the same way.
OBS_ALLOWLIST = {
    SRC / "support" / "Metrics.h",
    SRC / "support" / "Metrics.cpp",
    SRC / "support" / "ShardRegistry.h",
    SRC / "support" / "ShardRegistry.cpp",
    SRC / "support" / "Trace.h",
    SRC / "support" / "Trace.cpp",
    SRC / "support" / "Histogram.h",
    SRC / "support" / "Histogram.cpp",
    SRC / "support" / "Exposition.cpp",
    SRC / "solver" / "SlowQueryLog.cpp",
}
RAW_OBS = re.compile(
    r"\bobs::tlsShard\s*\(|\btlsShard\s*\(\s*\)\s*\.add\b"
    r"|\bobs::tlsHistShard\s*\(|\btlsHistShard\s*\(\s*\)\s*\.record\b"
    r"|\b(?:Metrics|Histogram|Shard)Registry\b[^;]*(?:::|\.)local\s*\(")

# Rule 4: layers that must route through the portfolio rather than picking
# an engine ad hoc. Only declarations/constructions trip the rule (the type
# name followed by a variable or brace), not mentions in comments/includes.
ROUTED_LAYERS = (SRC / "solver", SRC / "smt", SRC / "policy")
ROUTING_SITES = {SRC / "portfolio" / "Portfolio.cpp",
                 SRC / "portfolio" / "Portfolio.h"}
ENGINE_CTOR = re.compile(
    r"\b(?:AntimirovSolver|BrzozowskiMintermSolver|EagerSolver)\s*[({\w]")

LINE_COMMENT = re.compile(r"//.*$")


def strip_comment(line: str) -> str:
    """Drop // comments so commented-out code never trips a rule. (Block
    comments are not tracked; none of the rules' patterns appear in them.)"""
    return LINE_COMMENT.sub("", line)


def lint_file(path: Path):
    violations = []
    text = path.read_text(encoding="utf-8", errors="replace")
    lines = text.splitlines()
    hot_path = HOT_PATH_MARKER in text
    is_intern_site = path in INTERN_SITES
    obs_allowed = path in OBS_ALLOWLIST

    # Track #if SBD_OBS nesting for rule 3: raw shard access is fine inside
    # an explicit observability-gated region.
    obs_guard_depth = 0
    if_stack = []
    for lineno, raw in enumerate(lines, 1):
        stripped = raw.strip()
        if stripped.startswith("#if"):
            gated = bool(re.match(r"#if\s+SBD_OBS\b|#ifdef\s+SBD_OBS\b", stripped))
            if_stack.append(gated)
            if gated:
                obs_guard_depth += 1
        elif stripped.startswith("#else") or stripped.startswith("#elif"):
            if if_stack and if_stack[-1]:
                obs_guard_depth -= 1
                if_stack[-1] = False
        elif stripped.startswith("#endif"):
            if if_stack and if_stack.pop():
                obs_guard_depth -= 1

        code = strip_comment(raw)

        bypasses_intern = (
            (NODE_CTOR.search(code) and not TYPE_DECL.match(code)
             and not is_intern_site)
            or (ARENA_PUSH.search(code) and path not in OWN_ARENA_SITES))
        if bypasses_intern:
            violations.append(
                (path, lineno, "node-construction",
                 "arena nodes may only be built in the intern sites "
                 "(re/Regex.cpp, core/TransitionRegex.cpp); use the smart "
                 "constructors"))

        if hot_path and UNORDERED.search(code):
            violations.append(
                (path, lineno, "hot-path-containers",
                 "file is marked '// sbd-lint: hot-path'; use "
                 "InternTable/FlatMap64 instead of std::unordered_*"))

        if (not obs_allowed and obs_guard_depth == 0
                and RAW_OBS.search(code)):
            violations.append(
                (path, lineno, "obs-compiled-out",
                 "raw shard access survives -DSBD_OBS=0 builds; use "
                 "SBD_OBS_INC/SBD_OBS_ADD or wrap in #if SBD_OBS"))

        if (any(layer in path.parents for layer in ROUTED_LAYERS)
                and path not in ROUTING_SITES and ENGINE_CTOR.search(code)):
            violations.append(
                (path, lineno, "engine-routing",
                 "solver/smt/policy layers must not instantiate baseline "
                 "engines directly; route through "
                 "portfolio::PortfolioSolver/planRoute"))

    return violations


def main() -> int:
    files = sorted(SRC.rglob("*.h")) + sorted(SRC.rglob("*.cpp"))
    all_violations = []
    for path in files:
        all_violations.extend(lint_file(path))

    for path, lineno, rule, msg in all_violations:
        rel = path.relative_to(ROOT)
        print(f"{rel}:{lineno}: {rule}: {msg}", file=sys.stderr)

    if all_violations:
        print(f"lint_sbd.py: {len(all_violations)} violation(s).",
              file=sys.stderr)
        return 1
    print(f"lint_sbd.py: clean ({len(files)} files checked).")
    return 0


if __name__ == "__main__":
    sys.exit(main())
