#!/usr/bin/env python3
"""remo_lint: REMO-specific correctness lint for the C++ sources.

An AST-lite, regex-plus-brace-tracking pass over `src/` that enforces the
project's determinism and performance contracts (DESIGN.md §11). The rules
are deliberately narrow: each encodes an invariant the generic toolchain
(-Wall, clang-tidy, sanitizers) cannot see because it is a *project*
convention, not a language rule.

Rules
-----
  unordered-iteration  Range-for over a std::unordered_{map,set} in the
                       ORDER_SENSITIVE_DIRS below. Hash iteration order
                       is libstdc++-version- and seed-dependent; any plan
                       derived from it breaks the bit-identical-plan
                       guarantee (DESIGN.md §10). Lookups are fine;
                       iteration must go through a sorted container.
  raw-random           std::rand / srand / time(nullptr) seeding. All
                       randomness must flow through common/rng.h (SplitMix
                       seeded explicitly) so runs are reproducible.
  naked-assert         assert() or <cassert> in src/. Release builds define
                       NDEBUG, silently compiling the check away; use
                       REMO_ASSERT (always on) or REMO_DCHECK (debug +
                       sanitizer builds) from common/check.h instead.
  span-store           Storing the CountSpan returned by in_counts() /
                       local_counts() in a named variable. The view borrows
                       the tree's count arrays and is invalidated by any
                       mutation; named bindings are how stale views survive
                       to a use site. Consume it in the same statement or
                       copy to a std::vector.
  hot-alloc            new / malloc / make_unique / make_shared inside a
                       function whose definition is marked `// REMO_HOT`.
                       Hot-path functions run per candidate per iteration;
                       allocation there is a measured regression (PR 4).
  hot-slot-lookup      slot_of() inside a `// REMO_HOT` function body. The
                       id->slot hash/array lookup costs more than the work
                       of a vectorized loop iteration; hot loops must
                       resolve slots once outside the loop (or walk
                       parent_[] slots directly) and index the flat arrays.
  raw-mutex            std::mutex / lock_guard / unique_lock / scoped_lock
                       / condition_variable used directly in src/. All
                       locking goes through the annotated remo::Mutex /
                       MutexLock / CondVar wrappers (common/mutex.h) so
                       Clang Thread Safety Analysis (-DREMO_TSA=ON,
                       DESIGN.md §16) sees every capability; a raw mutex
                       is a hole in the compile-time lock-discipline proof.
  unannotated-mutex    A remo::Mutex member declared in a file that never
                       says REMO_GUARDED_BY(that mutex). A mutex that
                       guards nothing is either dead weight or — worse —
                       guarding fields the annotation layer can't see;
                       name at least one guarded field, or waive with the
                       reason the mutex exists (e.g. pure signaling).
  naked-thread         std::thread construction or .detach() outside the
                       common/thread_pool owner. Detached threads outlive
                       scope unjoined (UB at exit, invisible to TSan
                       teardown) and ad-hoc threads bypass the pool's
                       deterministic parallel_for indexing; spawn through
                       ThreadPool, or waive with the ownership story.
  nondet-source        Nondeterminism sources in plan-affecting code (the
                       order-sensitive dirs): wall-clock reads
                       (system_clock, gettimeofday, clock()) and
                       thread_local state. Plans must be pure functions of
                       (inputs, seed); steady_clock *duration* measurement
                       for reported timings is fine and not flagged.
                       (Float accumulation over unordered containers — the
                       third §16 source — is already caught by
                       unordered-iteration: any hash-order walk is banned.)

Suppressions
------------
A violation may be waived on its own line or the line directly above:

    // remo-lint: allow(span-store) read-only snapshot, tree not mutated

The rule name must match and the reason must be non-empty; a reasonless
allow() is itself reported. Suppressions are per-line, per-rule.

Exit codes: 0 clean, 1 violations found, 2 usage/internal error.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

CXX_SUFFIXES = {".h", ".hpp", ".cc", ".cpp", ".cxx"}

# Directories (relative to the scanned root) where hash-iteration order can
# leak into plans: the planner search, the tree kernel, the adaptation /
# repair loop, partition manipulation, the federation routing paths
# (shard assignment and subtask ordering must be bit-deterministic, see
# DESIGN.md §12), the service daemon (its wire stream, snapshots, and
# drain order underwrite the daemon-vs-batch bit-identity of DESIGN.md §14),
# and the failure-recovery loop: the collector's liveness events and the
# core facade that turns them into repair passes and replans.
ORDER_SENSITIVE_DIRS = ("planner", "tree", "adapt", "partition", "federation",
                        "service", "collector", "core")

SUPPRESS_RE = re.compile(r"//\s*remo-lint:\s*allow\(([a-z-]+)\)\s*(.*)$")
HOT_MARKER_RE = re.compile(r"//\s*REMO_HOT\b")

UNORDERED_DECL_RE = re.compile(r"\bstd\s*::\s*unordered_(?:map|set|multimap|multiset)\s*<")
RANGE_FOR_RE = re.compile(r"\bfor\s*\([^;()]*?:\s*(?:\*?\s*)?([A-Za-z_]\w*)\s*\)")

RAW_RANDOM_RE = re.compile(
    r"\bstd\s*::\s*rand\b|(?<![\w.])s?rand\s*\(|(?<![\w.:])time\s*\(\s*(?:nullptr|NULL|0)\s*\)"
)
NAKED_ASSERT_RE = re.compile(r"(?<![\w:])assert\s*\(")
CASSERT_INCLUDE_RE = re.compile(r'#\s*include\s*[<"](?:cassert|assert\.h)[>"]')
# Flags only *direct* bindings (`auto s = tree.in_counts(n)`), not
# same-statement consumption (`vec(tree.in_counts(n))`): the RHS must be the
# call itself, reached through member/scope access with no wrapping call.
SPAN_STORE_RE = re.compile(
    r"(?:\bauto\b[\s&*const]*|\bCountSpan\b[\s&]*|\bstd\s*::\s*span\s*<[^;=]*>[\s&]*)"
    r"[A-Za-z_]\w*\s*=\s*[\w\s.>:-]*\b(?:in_counts|local_counts)\s*\("
)
HOT_ALLOC_RE = re.compile(
    r"(?<![\w:])new\b|(?<![\w.:])(?:malloc|calloc|realloc)\s*\(|"
    r"\bmake_unique\s*<|\bmake_shared\s*<"
)
HOT_SLOT_LOOKUP_RE = re.compile(r"\bslot_of\s*\(")

# v2 concurrency/determinism rules (DESIGN.md §16) ---------------------------

RAW_MUTEX_RE = re.compile(
    r"\bstd\s*::\s*(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"recursive_timed_mutex|lock_guard|unique_lock|scoped_lock|shared_lock|"
    r"condition_variable(?:_any)?)\b"
)
# A remo::Mutex member/global declaration: `Mutex name_;`, possibly
# `mutable`. std::mutex is lowercase, so the capitalized match is exact;
# `Mutex& ref;` (the MutexLock member) deliberately does not match.
MUTEX_DECL_RE = re.compile(r"\b(?:mutable\s+)?Mutex\s+([A-Za-z_]\w*)\s*;")
# `std::thread t(...)` / `std::jthread` / vector<std::thread>, but not
# `std::thread::hardware_concurrency` (scope access) and not
# `std::this_thread::*`.
NAKED_THREAD_RE = re.compile(r"\bstd\s*::\s*j?thread\b(?!\s*::)")
DETACH_RE = re.compile(r"\.\s*detach\s*\(")
# Wall-clock and per-thread state in plan-affecting code. steady_clock is
# allowed (duration measurement); `clock(` does not match `steady_clock::`
# (no '(' after the name) nor `hardware_clock`-style identifiers (no word
# boundary after '_').
NONDET_SOURCE_RE = re.compile(
    r"\bsystem_clock\b|\bgettimeofday\s*\(|(?<![\w:])clock\s*\(\s*\)|"
    r"\bthread_local\b"
)


class Violation:
    __slots__ = ("path", "line", "rule", "message")

    def __init__(self, path: Path, line: int, rule: str, message: str):
        self.path = path
        self.line = line
        self.rule = rule
        self.message = message

    def __str__(self) -> str:
        return f"{self.path}:{self.line}: [{self.rule}] {self.message}"


def strip_comments_and_strings(lines: list[str]) -> list[str]:
    """Blank out comments and string/char literal contents, preserving the
    line structure so reported line numbers stay exact."""
    out: list[str] = []
    in_block = False
    for raw in lines:
        buf: list[str] = []
        i, n = 0, len(raw)
        while i < n:
            c = raw[i]
            if in_block:
                if raw.startswith("*/", i):
                    in_block = False
                    buf.append("  ")
                    i += 2
                else:
                    buf.append(" ")
                    i += 1
            elif raw.startswith("//", i):
                buf.append(" " * (n - i))
                break
            elif raw.startswith("/*", i):
                in_block = True
                buf.append("  ")
                i += 2
            elif c in "\"'":
                quote = c
                buf.append(quote)
                i += 1
                while i < n:
                    if raw[i] == "\\" and i + 1 < n:
                        buf.append("  ")
                        i += 2
                    elif raw[i] == quote:
                        buf.append(quote)
                        i += 1
                        break
                    else:
                        buf.append(" ")
                        i += 1
            else:
                buf.append(c)
                i += 1
        out.append("".join(buf))
    return out


def collect_suppressions(raw_lines: list[str], violations: list[Violation],
                         path: Path) -> dict[int, set[str]]:
    """Map line number -> rules waived there. An allow() on line L waives
    line L and line L+1 (annotation-above style). Reasonless allows are
    reported as violations of rule `suppression`."""
    allowed: dict[int, set[str]] = {}
    for idx, raw in enumerate(raw_lines, start=1):
        m = SUPPRESS_RE.search(raw)
        if not m:
            continue
        rule, reason = m.group(1), m.group(2).strip()
        if not reason:
            violations.append(Violation(
                path, idx, "suppression",
                f"allow({rule}) without a reason — say why the waiver is safe"))
            continue
        for line in (idx, idx + 1):
            allowed.setdefault(line, set()).add(rule)
    return allowed


def unordered_var_names(code_lines: list[str]) -> set[str]:
    """Names declared with an unordered container type. Template argument
    lists are skipped by angle-bracket matching, so `unordered_map<K,
    vector<V>> name` resolves to `name`."""
    names: set[str] = set()
    code = "\n".join(code_lines)
    for m in UNORDERED_DECL_RE.finditer(code):
        i, depth = m.end(), 1
        while i < len(code) and depth > 0:
            if code[i] == "<":
                depth += 1
            elif code[i] == ">":
                depth -= 1
            i += 1
        tail = code[i:i + 160]
        dm = re.match(r"\s*[&*]*\s*(?:const\s+)?([A-Za-z_]\w*)", tail)
        if dm:
            names.add(dm.group(1))
    return names


def hot_function_lines(raw_lines: list[str], code_lines: list[str]) -> set[int]:
    """Line numbers inside function bodies marked `// REMO_HOT` (marker on
    its own line or trailing the signature; body = next balanced {...})."""
    hot: set[int] = set()
    n = len(raw_lines)
    for idx in range(n):
        if not HOT_MARKER_RE.search(raw_lines[idx]):
            continue
        # Find the opening brace at or after the marker line.
        depth = 0
        opened = False
        j = idx
        while j < n:
            for ch in code_lines[j]:
                if ch == "{":
                    depth += 1
                    opened = True
                elif ch == "}":
                    depth -= 1
            if opened:
                hot.add(j + 1)
                if depth <= 0:
                    break
            j += 1
            if not opened and j > idx + 8:
                break  # marker not followed by a function body
    return hot


def lint_file(path: Path, rel: Path) -> list[Violation]:
    try:
        raw_lines = path.read_text(encoding="utf-8").splitlines()
    except (OSError, UnicodeDecodeError) as e:
        raise RuntimeError(f"cannot read {path}: {e}") from e
    code_lines = strip_comments_and_strings(raw_lines)

    violations: list[Violation] = []
    allowed = collect_suppressions(raw_lines, violations, rel)

    def report(line: int, rule: str, message: str) -> None:
        if rule in allowed.get(line, ()):  # waived with a written reason
            return
        violations.append(Violation(rel, line, rule, message))

    order_sensitive = any(part in ORDER_SENSITIVE_DIRS for part in rel.parts)
    unordered_names = unordered_var_names(code_lines) if order_sensitive else set()
    hot_lines = hot_function_lines(raw_lines, code_lines)
    # Mutexes named as guards anywhere in this file (REMO_GUARDED_BY /
    # REMO_PT_GUARDED_BY); a Mutex member missing from this set guards
    # nothing the analysis can see.
    guarded_mutexes = {
        m.group(1)
        for code in code_lines
        for m in re.finditer(
            r"REMO_(?:PT_)?GUARDED_BY\(\s*([A-Za-z_]\w*)\s*\)", code)
    }

    for idx, code in enumerate(code_lines, start=1):
        if order_sensitive and unordered_names:
            m = RANGE_FOR_RE.search(code)
            if m and m.group(1) in unordered_names:
                report(idx, "unordered-iteration",
                       f"range-for over unordered container '{m.group(1)}': hash "
                       "order is nondeterministic; iterate a sorted vector "
                       "(common/sorted_vector.h) instead")
        if RAW_RANDOM_RE.search(code):
            report(idx, "raw-random",
                   "raw libc randomness; use common/rng.h so runs are "
                   "reproducible from an explicit seed")
        if CASSERT_INCLUDE_RE.search(code):
            report(idx, "naked-assert",
                   "<cassert> include; use common/check.h (REMO_ASSERT / "
                   "REMO_DCHECK) so checks survive NDEBUG builds")
        if NAKED_ASSERT_RE.search(code):
            report(idx, "naked-assert",
                   "assert() compiles away under NDEBUG; use REMO_ASSERT "
                   "(always on) or REMO_DCHECK (debug/sanitizer builds)")
        if SPAN_STORE_RE.search(code):
            report(idx, "span-store",
                   "storing the borrowed view returned by in_counts()/"
                   "local_counts(); it is invalidated by any tree mutation — "
                   "consume it in the same statement or copy to a vector")
        if idx in hot_lines and HOT_ALLOC_RE.search(code):
            report(idx, "hot-alloc",
                   "allocation inside a // REMO_HOT function; hot paths must "
                   "reuse preallocated scratch (DESIGN.md §8)")
        if idx in hot_lines and HOT_SLOT_LOOKUP_RE.search(code):
            report(idx, "hot-slot-lookup",
                   "slot_of() inside a // REMO_HOT function; resolve the slot "
                   "once before the loop and index the flat arrays directly "
                   "(DESIGN.md §15)")
        if RAW_MUTEX_RE.search(code):
            report(idx, "raw-mutex",
                   "raw std:: locking primitive; use remo::Mutex / MutexLock "
                   "/ CondVar (common/mutex.h) so the thread-safety analysis "
                   "sees the capability (DESIGN.md §16)")
        m = MUTEX_DECL_RE.search(code)
        if m and m.group(1) not in guarded_mutexes:
            report(idx, "unannotated-mutex",
                   f"Mutex '{m.group(1)}' has no REMO_GUARDED_BY field in "
                   "this file; annotate what it guards, or waive with the "
                   "reason it exists (DESIGN.md §16)")
        if NAKED_THREAD_RE.search(code) or DETACH_RE.search(code):
            report(idx, "naked-thread",
                   "ad-hoc std::thread / detach(); spawn through "
                   "common/thread_pool (joined, deterministic indexing) or "
                   "waive with the ownership story (DESIGN.md §16)")
        if order_sensitive and NONDET_SOURCE_RE.search(code):
            report(idx, "nondet-source",
                   "wall-clock read or thread_local state in plan-affecting "
                   "code; plans must be pure functions of (inputs, seed) — "
                   "use the virtual clock / common/rng.h, or measure "
                   "durations with steady_clock (DESIGN.md §16)")
    return violations


def iter_sources(roots: list[Path]) -> list[Path]:
    files: list[Path] = []
    for root in roots:
        if root.is_file():
            if root.suffix in CXX_SUFFIXES:
                files.append(root)
        elif root.is_dir():
            files.extend(p for p in sorted(root.rglob("*"))
                         if p.suffix in CXX_SUFFIXES and p.is_file())
        else:
            raise RuntimeError(f"no such file or directory: {root}")
    return files


def run(paths: list[str]) -> int:
    roots = [Path(p) for p in paths]
    try:
        files = iter_sources(roots)
    except RuntimeError as e:
        print(f"remo_lint: {e}", file=sys.stderr)
        return 2
    if not files:
        print("remo_lint: no C++ sources found", file=sys.stderr)
        return 2

    all_violations: list[Violation] = []
    for f in files:
        try:
            rel = f.relative_to(Path.cwd())
        except ValueError:
            rel = f
        try:
            all_violations.extend(lint_file(f, rel))
        except RuntimeError as e:
            print(f"remo_lint: {e}", file=sys.stderr)
            return 2

    for v in all_violations:
        print(v)
    if all_violations:
        print(f"remo_lint: {len(all_violations)} violation(s) in "
              f"{len(files)} file(s)", file=sys.stderr)
        return 1
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(
        description="REMO-specific correctness lint (see DESIGN.md §11)")
    ap.add_argument("paths", nargs="+", help="files or directories to lint")
    args = ap.parse_args()
    return run(args.paths)


if __name__ == "__main__":
    sys.exit(main())
