#!/usr/bin/env python3
"""Tests for tools/lint_concurrency.py against the fixture trees.

Each fixture under tests/lint_fixtures/ is a miniature repo root (src/,
tests/ subtrees). pass_* fixtures must lint clean; fail_* fixtures must
produce exactly the finding their name advertises. The suite also lints the
real repository, so a rule regression and a tree regression both fail here
before CI's standalone lint step does.

Run directly (python3 tests/lint_test.py) or via ctest (lint_test).
"""

from __future__ import annotations

import subprocess
import sys
import unittest
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent
LINT = REPO_ROOT / "tools" / "lint_concurrency.py"
FIXTURES = REPO_ROOT / "tests" / "lint_fixtures"


def run_lint(root: Path) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(LINT), "--root", str(root)],
        capture_output=True,
        text=True,
        check=False,
    )


class LintFixtureTest(unittest.TestCase):
    def assert_clean(self, fixture: str) -> None:
        result = run_lint(FIXTURES / fixture)
        self.assertEqual(
            result.returncode, 0,
            f"{fixture} should lint clean; output:\n{result.stdout}{result.stderr}",
        )

    def assert_finding(self, fixture: str, rule: str, needle: str) -> None:
        result = run_lint(FIXTURES / fixture)
        self.assertEqual(
            result.returncode, 1,
            f"{fixture} should fail; output:\n{result.stdout}{result.stderr}",
        )
        self.assertIn(f"[{rule}]", result.stdout, f"expected a [{rule}] finding")
        self.assertIn(needle, result.stdout, f"finding should point at {needle}")

    # ---------------------------------------------------------------- pass cases

    def test_clean_tree_passes(self):
        self.assert_clean("pass_clean")

    def test_sync_hpp_is_allowlisted_for_raw_primitives(self):
        # pass_clean contains a std::mutex inside src/util/sync.hpp; a clean
        # run proves the allowlist keys on the path, not just on luck.
        result = run_lint(FIXTURES / "pass_clean")
        self.assertEqual(result.returncode, 0, result.stdout)

    def test_callback_invoked_outside_guard_passes(self):
        self.assert_clean("pass_callback_outside_lock")

    def test_allowlisted_test_may_sleep(self):
        self.assert_clean("pass_sleep_allowlisted")

    def test_control_atomics_and_registry_counters_pass(self):
        # next_id_ / in_flight_ / outstanding_[r] / done_ranks_-> in serving
        # and stream, a fetch_add inside the registry itself, and fetch_add
        # text in comments and strings all lint clean.
        self.assert_clean("pass_control_atomics")

    def test_cache_counters_and_cachesim_tallies_pass(self):
        # Serving counts cache traffic through registry handles and only
        # reads or folds CacheStats views; the simulator under src/cachesim/
        # tallies its own CacheStats; comments and strings are ignored.
        self.assert_clean("pass_cache_counters")

    def test_serving_row_loops_and_teams_outside_serving_pass(self):
        # A serial serving loop over nn/layer_rows.hpp, a team in src/nn/,
        # and team syntax inside serving comments and strings all lint clean.
        self.assert_clean("pass_serving_row_loops")

    def test_modules_reached_from_entry_points_pass(self):
        # An example reaches src/graph/graph.hpp, which reaches
        # src/util/types.hpp; graph.hpp's sibling graph.cpp reaches
        # src/util/detail.hpp; a ledger-local header reaches
        # src/util/ledger_only.hpp. Every header is reached.
        self.assert_clean("pass_reached_modules")

    # ---------------------------------------------------------------- fail cases

    def test_raw_mutex_fails(self):
        self.assert_finding("fail_raw_mutex", "raw-primitive", "src/widget.cpp")

    def test_relaxed_order_fails(self):
        self.assert_finding("fail_relaxed_order", "relaxed-order", "src/counter.cpp")

    def test_relaxed_order_in_ledger_fails(self):
        # The benchmark driver is scanned like the library it drives.
        self.assert_finding(
            "fail_relaxed_order_in_ledger", "relaxed-order", "ledger/driver.cpp:5"
        )

    def test_callback_under_lock_fails(self):
        self.assert_finding(
            "fail_callback_under_lock", "callback-under-lock", "src/obs/health.cpp"
        )

    def test_sleep_in_unlisted_test_fails(self):
        self.assert_finding("fail_sleep_in_test", "sleep-in-test", "tests/widget_test.cpp")

    def test_omp_parallel_in_serving_fails(self):
        self.assert_finding(
            "fail_omp_parallel_in_serving", "omp-team-in-serving", "src/serve/worker.cpp:3"
        )

    def test_driver_include_in_serving_fails(self):
        self.assert_finding(
            "fail_driver_include_in_serving", "omp-team-in-serving", "nn/gemm.hpp"
        )

    def test_counter_outside_registry_fails(self):
        self.assert_finding(
            "fail_counter_outside_registry", "counter-outside-registry", "src/serve/tally.cpp:4"
        )
        self.assert_finding(
            "fail_counter_outside_registry", "counter-outside-registry",
            "src/stream/publisher.cpp:4",
        )

    def test_cache_stats_tally_outside_registry_fails(self):
        self.assert_finding(
            "fail_cache_stats_outside_registry", "counter-outside-registry",
            "src/serve/lru.cpp:4",
        )
        self.assert_finding(
            "fail_cache_stats_outside_registry", "counter-outside-registry",
            "src/stream/refill.cpp:4",
        )

    def test_unreached_module_fails(self):
        # src/widget/orphan.hpp is included only by a test and by a comment
        # in the example; used.hpp and the helper its .cpp includes are
        # reached and must not be reported.
        self.assert_finding(
            "fail_unreached_module", "unreached-module", "src/widget/orphan.hpp:1"
        )
        result = run_lint(FIXTURES / "fail_unreached_module")
        self.assertEqual(result.stdout.count("[unreached-module]"), 1, result.stdout)

    # ------------------------------------------------------------------ real tree

    def test_repository_lints_clean(self):
        result = run_lint(REPO_ROOT)
        self.assertEqual(
            result.returncode, 0,
            f"repository has lint findings:\n{result.stdout}{result.stderr}",
        )


if __name__ == "__main__":
    unittest.main(verbosity=2)
