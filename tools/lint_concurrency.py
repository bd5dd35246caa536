#!/usr/bin/env python3
"""Repo-invariant concurrency lint (see README "Concurrency correctness").

Pure-Python (stdlib only, no libclang) so it runs anywhere the repo builds.
Seven rules, each with an explicit allowlist or scope kept in this file so a
reviewer can see every exemption in one place:

  raw-primitive   No raw std::mutex / std::shared_mutex / std::condition_variable
                  / std::lock_guard / std::unique_lock / std::scoped_lock /
                  std::shared_lock anywhere outside src/util/sync.hpp. Shared
                  state goes through util::Mutex & friends so the clang
                  thread-safety annotations apply (GUARDED_BY is meaningless
                  on a std::mutex member nobody annotates).

  relaxed-order   std::memory_order_relaxed only in files audited for it.
                  Relaxed atomics are fine for monotonic stats counters but
                  are exactly how "benign" races creep in; new call sites must
                  be reviewed and the file added to the allowlist on purpose.

  callback-under-lock
                  In the publication/health files that invoke user-registered
                  callbacks, no callback call may happen while a lock guard is
                  live in an enclosing scope. A hook that fires under the
                  holder's mutex deadlocks the first caller that re-enters the
                  holder (the SnapshotHolder publish hook and the health
                  monitor's on_event callbacks both copy-then-invoke outside
                  the lock for this reason).

  sleep-in-test   No std::this_thread::sleep_for in tests outside the audited
                  allowlist. Sleeping tests either flake (sleep too short) or
                  crawl (sleep too long); the allowlisted files use bounded
                  polling loops that were reviewed individually.

  omp-team-in-serving
                  Nothing under src/serve/ starts an OpenMP team: no
                  `#pragma omp parallel`, and no include of a full-graph
                  driver whose row loops are `omp parallel for` (nn/gemm,
                  nn/linear, nn/graphsage_layer, nn/rgcn_layer,
                  kernels/aggregate). R x P serving workers
                  run concurrently; a team per worker would oversubscribe the
                  host. Serving reaches the layer arithmetic through the
                  team-free row functions in nn/layer_rows.hpp.

  counter-outside-registry
                  Under src/serve/ and src/stream/, fetch_add / fetch_sub only
                  on the control atomics in CONTROL_ATOMIC_ALLOWLIST: request
                  ids, the in-flight and outstanding tallies that drain and
                  route, the routing cursors, and the rank-exit rendezvous.
                  A value that only counts belongs in the tier's
                  obs::MetricsRegistry, the one book stats() and scrape()
                  read; a second book drifts from the first. For the same
                  reason `++` / `+=` on a CacheStats field (accesses, misses,
                  bytes_read) is a finding there: cache traffic counts
                  through CacheCounters handles, and CacheStats is only the
                  view stats() reads out of them.

  unreached-module
                  Every header under src/ is reached through #include from
                  an entry point: a bench, an example or the ledger driver.
                  The walk follows quoted includes transitively, and a
                  reached header's sibling .cpp counts as linked, so its
                  includes are followed too. A module that only its own
                  tests include is code nothing runs: delete it, or use it.
                  The rule applies to trees that have at least one entry
                  point directory.

Exit status: 0 clean, 1 findings, 2 usage error. Each finding prints
`path:line: [rule] message` so editors and CI annotate it directly.
"""

from __future__ import annotations

import argparse
import re
import sys
from pathlib import Path

# --------------------------------------------------------------------------- config

CXX_EXTENSIONS = {".cpp", ".hpp", ".cc", ".hh", ".cxx", ".h"}

# Directories scanned relative to the repo root.
SCAN_DIRS = ("src", "tests", "bench", "examples", "ledger")

# Subtrees never scanned: the lint's own pass/fail corpus lives here, and its
# fail_* fixtures contain violations on purpose.
SKIP_DIRS = ("tests/lint_fixtures",)

# raw-primitive: the only file allowed to name the std primitives. (The
# <mutex> *header* is still allowed everywhere — std::once_flag lives there.)
RAW_PRIMITIVE_ALLOWLIST = {
    "src/util/sync.hpp",
}
RAW_PRIMITIVE_RE = re.compile(
    r"std\s*::\s*(?:mutex|shared_mutex|recursive_mutex|timed_mutex|"
    r"condition_variable(?:_any)?|lock_guard|unique_lock|scoped_lock|shared_lock)\b"
)

# relaxed-order: files audited for relaxed atomics (monotonic counters only).
RELAXED_ORDER_ALLOWLIST = {
    "src/obs/metrics.cpp",
    "src/obs/metrics.hpp",
    "src/obs/trace.cpp",
    "src/serve/inference_server.cpp",
    "src/serve/replica_group.cpp",
    "src/serve/router.cpp",
    "src/serve/sharded_server.cpp",
    # Test-side monotonic tallies (hit/served counters folded after join).
    "tests/embed_cache_test.cpp",
    "tests/stream_test.cpp",
    # The open-loop driver's last-completion time: a relaxed initial load
    # seeds a compare_exchange_weak max loop, which retries on any stale read.
    "ledger/ledger.cpp",
}
RELAXED_ORDER_RE = re.compile(r"std\s*::\s*memory_order_relaxed\b")

# callback-under-lock: files that own user-registered callbacks, and the
# identifiers that invoke one. Guard declarations are matched structurally
# (util::MutexLock / WriterLock / ReaderLock); a callback call inside the
# guard's brace scope is a finding.
CALLBACK_FILES = {
    "src/obs/health.cpp": (r"callback", r"callbacks_\s*\[[^\]]*\]", r"on_event_"),
    "src/serve/model_snapshot.cpp": (r"hook", r"on_publish_"),
    "src/stream/delta_publisher.cpp": (r"hook", r"on_publish_", r"callback"),
}
GUARD_DECL_RE = re.compile(r"\butil\s*::\s*(?:MutexLock|WriterLock|ReaderLock)\s+(\w+)\s*[({]")

# sleep-in-test: tests audited to use sleeps only inside bounded polling
# loops (or to pace open-loop arrival schedules, which is the workload).
SLEEP_TEST_ALLOWLIST = {
    "tests/composed_test.cpp",
    "tests/embed_cache_test.cpp",
    "tests/serve_test.cpp",
    "tests/stream_test.cpp",
}
SLEEP_RE = re.compile(r"\bsleep_for\s*\(")

# omp-team-in-serving: the serving subtree, and the full-graph drivers it
# must not include (each opens a `#pragma omp parallel` team per call).
SERVING_PREFIX = "src/serve/"
OMP_PARALLEL_RE = re.compile(r"^\s*#\s*pragma\s+omp\s+parallel\b")
INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]([^>"]+)[>"]')
TEAM_DRIVER_HEADERS = {
    "nn/gemm.hpp",
    "nn/linear.hpp",
    "nn/graphsage_layer.hpp",
    "nn/rgcn_layer.hpp",
    "kernels/aggregate.hpp",
}

# counter-outside-registry: the subtrees whose counters live in a
# MetricsRegistry, and the atomics there that control or synchronise rather
# than count.
REGISTRY_COUNTER_PREFIXES = ("src/serve/", "src/stream/")
CONTROL_ATOMIC_ALLOWLIST = {
    "next_id_",      # request ids
    "in_flight_",    # drain() signal: admitted, not yet replied
    "outstanding_",  # Router: per-replica admitted, not yet completed
    "rr_next_",      # round-robin cursor
    "p2c_draws_",    # power-of-two-choices draw stream
    "done_ranks_",   # ShardedServer rank-exit rendezvous
}
FETCH_RMW_RE = re.compile(r"\bfetch_(?:add|sub)\s*\(")
# `x.accesses++`, `x.misses += n`, `++x.bytes_read`: a CacheStats tally.
CACHE_STATS_RMW_RE = re.compile(
    r"\b(accesses|misses|bytes_read)\s*(?:\+\+|\+=)"
    r"|\+\+\s*(?:\w+\s*(?:\[[^\[\]]*\])?\s*(?:\.|->)\s*)*(accesses|misses|bytes_read)\b"
)
# The atomic a fetch_* call applies to: `name_.`, `name_->` or `name_[i].`
# right before the call.
RMW_TARGET_RE = re.compile(r"(\w+)\s*(?:\[[^\[\]]*\])?\s*(?:\.|->)\s*$")

# unreached-module: the directories whose programs are what the library is
# for, and the module tree whose headers they must reach.
ENTRY_DIRS = ("bench", "examples", "ledger")
MODULE_DIR = "src"
HEADER_EXTENSIONS = {".hpp", ".hh", ".h"}

# --------------------------------------------------------------------------- lexing


def strip_comments_and_strings(text: str) -> str:
    """Blanks out comments, string literals and char literals, preserving
    newlines (and therefore line numbers) and brace structure."""
    out = []
    i, n = 0, len(text)
    state = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == "code":
            if c == "/" and nxt == "/":
                state = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == "line_comment":
            if c == "\n":
                state = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif state == "block_comment":
            if c == "*" and nxt == "/":
                state = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state == "string":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = "code"
            out.append("\n" if c == "\n" else " ")
        elif state == "char":
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == "'":
                state = "code"
            out.append(" ")
        i += 1
    return "".join(out)


# --------------------------------------------------------------------------- rules


def check_raw_primitive(rel: str, code: str, findings: list[str]) -> None:
    if rel in RAW_PRIMITIVE_ALLOWLIST:
        return
    for lineno, line in enumerate(code.splitlines(), start=1):
        if RAW_PRIMITIVE_RE.search(line):
            findings.append(
                f"{rel}:{lineno}: [raw-primitive] raw std synchronization primitive; "
                f"use util::Mutex / util::CondVar from src/util/sync.hpp so the "
                f"thread-safety annotations apply"
            )


def check_relaxed_order(rel: str, code: str, findings: list[str]) -> None:
    if rel in RELAXED_ORDER_ALLOWLIST:
        return
    for lineno, line in enumerate(code.splitlines(), start=1):
        if RELAXED_ORDER_RE.search(line):
            findings.append(
                f"{rel}:{lineno}: [relaxed-order] memory_order_relaxed outside the "
                f"audited allowlist; review the ordering argument and add the file "
                f"to RELAXED_ORDER_ALLOWLIST in tools/lint_concurrency.py"
            )


def check_callback_under_lock(rel: str, code: str, findings: list[str]) -> None:
    patterns = CALLBACK_FILES.get(rel)
    if not patterns:
        return
    call_re = re.compile(r"\b(?:" + "|".join(patterns) + r")\s*\(")
    # Track brace depth; remember the depth at which each live guard was
    # declared. A guard dies when depth drops below its declaration depth.
    depth = 0
    guard_depths: list[int] = []
    lambda_depths: list[int] = []  # lambda bodies defer execution: not a call site
    for lineno, line in enumerate(code.splitlines(), start=1):
        if GUARD_DECL_RE.search(line):
            guard_depths.append(depth)
        # A lambda introduced on this line defers everything inside its body.
        lambda_opens = len(re.findall(r"\[[^\[\]]*\]\s*(?:\([^()]*\))?\s*(?:mutable\s*)?\{", line))
        for _ in range(lambda_opens):
            lambda_depths.append(depth)
        if guard_depths and not lambda_depths and call_re.search(line):
            findings.append(
                f"{rel}:{lineno}: [callback-under-lock] callback invoked while a lock "
                f"guard is live; copy the callback under the lock and invoke it "
                f"after the guard's scope closes"
            )
        for ch in line:
            if ch == "{":
                depth += 1
            elif ch == "}":
                depth -= 1
                while guard_depths and depth <= guard_depths[-1]:
                    guard_depths.pop()
                while lambda_depths and depth <= lambda_depths[-1]:
                    lambda_depths.pop()


def check_sleep_in_test(rel: str, code: str, findings: list[str]) -> None:
    if not rel.startswith("tests/") or rel in SLEEP_TEST_ALLOWLIST:
        return
    for lineno, line in enumerate(code.splitlines(), start=1):
        if SLEEP_RE.search(line):
            findings.append(
                f"{rel}:{lineno}: [sleep-in-test] sleep_for in a test outside the "
                f"audited allowlist; prefer condition variables or bounded polling, "
                f"and if the sleep is genuinely needed add the file to "
                f"SLEEP_TEST_ALLOWLIST in tools/lint_concurrency.py"
            )


def check_omp_team_in_serving(rel: str, code: str, raw: str, findings: list[str]) -> None:
    if not rel.startswith(SERVING_PREFIX):
        return
    # Include paths are string literals, which `code` blanks out, so the path
    # is read from the raw line; `code` still decides that the line is a live
    # directive rather than a comment.
    for lineno, (line, raw_line) in enumerate(
        zip(code.splitlines(), raw.splitlines()), start=1
    ):
        if OMP_PARALLEL_RE.search(line):
            findings.append(
                f"{rel}:{lineno}: [omp-team-in-serving] `#pragma omp parallel` in serving; "
                f"workers run concurrently, so loop serially over the row functions in "
                f"nn/layer_rows.hpp"
            )
        include = INCLUDE_RE.search(raw_line)
        if include and line.lstrip().startswith("#") and include.group(1) in TEAM_DRIVER_HEADERS:
            findings.append(
                f"{rel}:{lineno}: [omp-team-in-serving] serving includes the full-graph "
                f"driver {include.group(1)}, which starts an OpenMP team; call the row "
                f"functions in nn/layer_rows.hpp instead"
            )


def check_counter_outside_registry(rel: str, code: str, findings: list[str]) -> None:
    if not rel.startswith(REGISTRY_COUNTER_PREFIXES):
        return
    for lineno, line in enumerate(code.splitlines(), start=1):
        for call in FETCH_RMW_RE.finditer(line):
            target = RMW_TARGET_RE.search(line[: call.start()])
            name = target.group(1) if target else "?"
            if name in CONTROL_ATOMIC_ALLOWLIST:
                continue
            findings.append(
                f"{rel}:{lineno}: [counter-outside-registry] fetch_add/fetch_sub on "
                f"`{name}`, which is not a control atomic; count it with an "
                f"obs::MetricsRegistry handle, or add it to CONTROL_ATOMIC_ALLOWLIST in "
                f"tools/lint_concurrency.py if it drains, routes or synchronises"
            )
        for tally in CACHE_STATS_RMW_RE.finditer(line):
            field = tally.group(1) or tally.group(2)
            findings.append(
                f"{rel}:{lineno}: [counter-outside-registry] CacheStats field `{field}` "
                f"counted in place; count cache traffic through CacheCounters handles "
                f"into the tier's obs::MetricsRegistry"
            )


def live_includes(path: Path) -> list[str]:
    """Quoted or angled include paths of the live `#include` directives."""
    raw = path.read_text(encoding="utf-8", errors="replace")
    code = strip_comments_and_strings(raw)
    out = []
    for line, raw_line in zip(code.splitlines(), raw.splitlines()):
        include = INCLUDE_RE.search(raw_line)
        if include and line.lstrip().startswith("#"):
            out.append(include.group(1))
    return out


def check_unreached_modules(root: Path, findings: list[str]) -> None:
    entry_files = [
        p
        for sub in ENTRY_DIRS
        if (root / sub).is_dir()
        for p in sorted((root / sub).rglob("*"))
        if p.is_file() and p.suffix in CXX_EXTENSIONS
    ]
    modules = root / MODULE_DIR
    if not entry_files or not modules.is_dir():
        return
    reached: set[Path] = set()
    queue = list(entry_files)
    while queue:
        path = queue.pop()
        if path in reached:
            continue
        reached.add(path)
        if path.suffix in HEADER_EXTENSIONS and path.is_relative_to(modules):
            source = path.with_suffix(".cpp")
            if source.is_file():
                queue.append(source)
        for include in live_includes(path):
            for candidate in (path.parent / include, modules / include):
                if candidate.is_file():
                    queue.append(candidate.resolve())
                    break
    for header in sorted(modules.rglob("*")):
        if header.is_file() and header.suffix in HEADER_EXTENSIONS and header not in reached:
            rel = header.relative_to(root).as_posix()
            findings.append(
                f"{rel}:1: [unreached-module] no bench, example or ledger source reaches "
                f"this header through #include; delete the module or use it from an "
                f"entry point"
            )


# --------------------------------------------------------------------------- driver


def lint_file(root: Path, path: Path) -> list[str]:
    rel = path.relative_to(root).as_posix()
    raw = path.read_text(encoding="utf-8", errors="replace")
    code = strip_comments_and_strings(raw)
    findings: list[str] = []
    check_raw_primitive(rel, code, findings)
    check_relaxed_order(rel, code, findings)
    check_callback_under_lock(rel, code, findings)
    check_sleep_in_test(rel, code, findings)
    check_omp_team_in_serving(rel, code, raw, findings)
    check_counter_outside_registry(rel, code, findings)
    return findings


def main(argv: list[str]) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument(
        "--root",
        type=Path,
        default=Path(__file__).resolve().parent.parent,
        help="repo root to lint (default: the checkout containing this script)",
    )
    args = parser.parse_args(argv)
    root = args.root.resolve()
    if not root.is_dir():
        print(f"lint_concurrency: not a directory: {root}", file=sys.stderr)
        return 2

    files: list[Path] = []
    for sub in SCAN_DIRS:
        base = root / sub
        if not base.is_dir():
            continue
        files.extend(
            p
            for p in sorted(base.rglob("*"))
            if p.is_file()
            and p.suffix in CXX_EXTENSIONS
            and not any(
                p.relative_to(root).as_posix().startswith(skip + "/") for skip in SKIP_DIRS
            )
        )
    if not files:
        print(f"lint_concurrency: no C++ sources under {root}", file=sys.stderr)
        return 2

    findings: list[str] = []
    for path in files:
        findings.extend(lint_file(root, path))
    check_unreached_modules(root, findings)

    for finding in findings:
        print(finding)
    if findings:
        print(f"lint_concurrency: {len(findings)} finding(s) in {len(files)} file(s)")
        return 1
    print(f"lint_concurrency: OK ({len(files)} files)")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
