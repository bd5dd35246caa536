#!/usr/bin/env python3
"""Performance ledger: builds ledger_bench, runs its workloads, checks every
result against BENCHMARK.json, and compares two builds.

    python3 ledger/ledger.py workload --workload W --seed N --seconds T --trace 0|1
        One run in the benchmark format: the last stdout line is
        {"correct", "attempted", "failed", "metrics"}; --trace 0 reports the
        end-to-end metrics, --trace 1 the per-layer ones.
    python3 ledger/ledger.py run [--seed N] [--trace] [--smoke]
        Every workload once; prints "workload metric value unit" lines.
        --smoke shortens each window to a twentieth and checks that every metric
        and probe is present.
    python3 ledger/ledger.py calibrate [--runs 5]
        K interleaved runs per workload (seeds 1..K), each printed; median and
        IQR of each end-to-end metric against its bound; then seed 1 once
        more, whose exact metrics (loss, byte counts) must repeat to 12
        significant digits.
    python3 ledger/ledger.py compare --parent DIR --change DIR [--pairs 10]
        Alternating parent/change pairs per workload and seed; a gain needs
        >= 9/10 wins and a median gap wider than the parent's IQR.

Exit codes: 0 success, 1 failure (build, run, validation, probe, regression),
2 refused (bad arguments, or a Debug / sanitizer build).

The build lives in $CARGO_TARGET_DIR (default .bench_build) under the
checkout root; traces of --trace runs go to its traces/ subdirectory.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

LEDGER_DIR = Path(__file__).resolve().parent
ROOT = LEDGER_DIR.parent
BENCHMARK = ROOT / "BENCHMARK.json"
BUILD_TIMEOUT_S = 880
RUN_TIMEOUT_S = 170
HOST_CORES = 4  # the workloads are sized for a 4-core host
SMOKE_FRACTION = 1 / 20  # of run_seconds, per window: all four workloads in about 23 s

# Probes each workload must run; a run without them is not a result.
EXPECTED_PROBES = {
    "train-1s": ["loss_finite"],
    "train-4r": ["loss_finite"],
    "serve-read": ["registry_vs_single"],
    "serve-mixed": ["live_vs_cold"],
}
# Per-layer metrics that repeat for a fixed seed and build; they go into
# every run's record so calibrate and compare can check them untraced.
EXACT_METRICS = [
    "nn.loss_final",
    "partition.replication_factor",
    "comm.halo_mb_per_epoch",
    "comm.allreduce_mb_per_epoch",
]
# The library sums the loss over OpenMP threads with reduction(+), whose
# combining order is not fixed, so with 4 threads the last bits of
# nn.loss_final move between runs of one seed. The gradients do not pass
# through that sum and the trajectory repeats, so 12 significant digits are
# compared; the counts are far coarser than that.
EXACT_REL_TOL = 1e-12


class LedgerError(Exception):
    """A build, run or validation failure (exit 1)."""


class Refused(Exception):
    """A request the ledger will not time (exit 2)."""


def log(message):
    print(f"ledger: {message}", file=sys.stderr, flush=True)


def load_benchmark():
    with open(BENCHMARK, encoding="utf-8") as f:
        return json.load(f)


def workload_names(bench):
    return [w["name"] for w in bench["workloads"]]


def build_dir():
    path = Path(os.environ.get("CARGO_TARGET_DIR", ".bench_build"))
    return path if path.is_absolute() else ROOT / path


def host_cores():
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:
        return os.cpu_count() or 1


def run_logged(cmd, timeout):
    """Runs a build step with its output on stderr (stdout is for results)."""
    try:
        proc = subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr, timeout=timeout,
                              check=False)
    except (OSError, subprocess.TimeoutExpired) as e:
        raise LedgerError(f"{cmd[0]}: {e}") from e
    if proc.returncode != 0:
        raise LedgerError(f"{' '.join(cmd)} exited {proc.returncode}")


def build():
    """Configures (once) and builds ledger_bench; returns its path."""
    out = build_dir()
    if not (out / "CMakeCache.txt").exists():
        cmd = ["cmake", "-S", str(LEDGER_DIR), "-B", str(out), "-DCMAKE_BUILD_TYPE=Release"]
        if shutil.which("ninja"):
            cmd += ["-G", "Ninja"]
        run_logged(cmd, BUILD_TIMEOUT_S)
    run_logged(["cmake", "--build", str(out), "--target", "ledger_bench", "-j",
                str(min(HOST_CORES, host_cores()))], BUILD_TIMEOUT_S)
    return out / "ledger_bench"


def check_build(binary):
    """The binary's own build record; refuses builds whose timings mean nothing."""
    try:
        proc = subprocess.run([str(binary), "--build-info"], capture_output=True, text=True,
                              timeout=30, check=True)
        info = json.loads(proc.stdout.strip().splitlines()[-1])
    except (OSError, subprocess.SubprocessError, ValueError, IndexError) as e:
        raise LedgerError(f"cannot read the build record: {e}") from e
    if info["build_type"] == "Debug" or not info["optimized"]:
        raise Refused(f"refusing to time an unoptimized ({info['build_type']}) build")
    if info["asan"] or info["tsan"]:
        raise Refused("refusing to time a sanitizer build")
    return info


def prepare():
    binary = build()
    info = check_build(binary)
    if host_cores() < HOST_CORES:
        log(f"warning: {host_cores()} cores; the workloads are sized for {HOST_CORES}")
    return binary, info


def cpu_model():
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def git_state():
    """(sha, dirty) of the checkout, or (None, None) outside a git work tree.
    Only a .git in the checkout root counts, so git never searches above it."""
    if not (ROOT / ".git").exists() or not shutil.which("git"):
        return None, None
    try:
        sha = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True,
                             text=True, timeout=30, check=True).stdout.strip()
        status = subprocess.run(["git", "-C", str(ROOT), "status", "--porcelain"],
                                capture_output=True, text=True, timeout=30, check=True).stdout
    except (OSError, subprocess.SubprocessError):
        return None, None
    return sha, bool(status.strip())


def machine_record(info):
    sha, dirty = git_state()
    return {"nproc": host_cores(), "cpu_model": cpu_model(), **info, "git_sha": sha,
            "git_dirty": dirty}


def run_binary(binary, workload, seed, seconds, trace, smoke=False):
    cmd = [str(binary), f"--workload={workload}", f"--seed={seed}", f"--seconds={seconds}",
           f"--trace={1 if trace else 0}"]
    if smoke:
        cmd.append("--smoke")
    if trace:
        traces = build_dir() / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        cmd.append(f"--trace-dir={traces}")
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True, timeout=RUN_TIMEOUT_S,
                              check=False)
    except subprocess.TimeoutExpired as e:
        raise LedgerError(f"{workload}: no result within {RUN_TIMEOUT_S} s") from e
    if proc.returncode != 0:
        raise LedgerError(f"{workload}: ledger_bench exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    try:
        return json.loads(lines[-1])
    except (ValueError, IndexError) as e:
        raise LedgerError(f"{workload}: unreadable result") from e


def select_metrics(result, specs, fill_missing):
    """Every metric of `specs`, finite and in its declared unit. With
    `fill_missing`, a per-layer metric the workload did not emit reads 0: that
    layer does no such work on this workload."""
    out = {}
    for spec in specs:
        name, unit = spec["name"], spec["unit"]
        got = result["metrics"].get(name)
        if got is None:
            if not fill_missing:
                raise LedgerError(f"{result['workload']}: metric {name} missing")
            out[name] = {"value": 0.0, "unit": unit}
            continue
        value = got["value"]
        if not isinstance(value, (int, float)) or not math.isfinite(value):
            raise LedgerError(f"{result['workload']}: metric {name} is not finite")
        if got["unit"] != unit:
            raise LedgerError(f"{result['workload']}: metric {name} in {got['unit']}, not {unit}")
        out[name] = {"value": value, "unit": unit}
    return out


def same_exact(a, b):
    return a.keys() == b.keys() and all(
        math.isclose(a[k], b[k], rel_tol=EXACT_REL_TOL) for k in a)


def correct(result):
    probes = result.get("probes", {})
    return bool(result["correct"]) and all(
        probes.get(p) is True for p in EXPECTED_PROBES[result["workload"]])


def measure(binary, info, bench, workload, seed, seconds, trace, smoke=False):
    """One validated run: (result line for the benchmark, record, raw result)."""
    load_start = os.getloadavg()
    raw = run_binary(binary, workload, seed, seconds, trace, smoke)
    specs = bench["per_layer"] if trace else bench["end_to_end"]
    metrics = select_metrics(raw, specs, fill_missing=trace)
    declared = {m["name"] for m in bench["end_to_end"] + bench["per_layer"]}
    record = machine_record(info)
    record.update({"workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
                   "loadavg_start": load_start, "loadavg_end": os.getloadavg(),
                   "probes": raw.get("probes", {}),
                   "reported": {k: v for k, v in raw["metrics"].items() if k not in declared},
                   "exact": {k: raw["metrics"][k]["value"] for k in EXACT_METRICS
                             if k in raw["metrics"]}})
    line = {"correct": correct(raw), "attempted": int(raw["attempted"]),
            "failed": int(raw["failed"]), "metrics": metrics}
    if line["attempted"] < 1:
        raise LedgerError(f"{workload}: nothing attempted")
    return line, record, raw


# ----------------------------------------------------------------- commands

def cmd_workload(args, bench):
    if args.workload not in workload_names(bench):
        raise Refused(f"unknown workload {args.workload!r}")
    if args.seconds <= 0:
        raise Refused("--seconds must be positive")
    binary, info = prepare()
    line, record, _ = measure(binary, info, bench, args.workload, args.seed, args.seconds,
                              args.trace == 1)
    print("record " + json.dumps(record))
    print(json.dumps(line), flush=True)
    return 0


def print_metrics(workload, metrics):
    for name, m in metrics.items():
        print(f"{workload} {name} {m['value']:.6g} {m['unit']}")


def cmd_run(args, bench):
    binary, info = prepare()
    seconds = bench["run_seconds"] * (SMOKE_FRACTION if args.smoke else 1)
    trace = args.trace or args.smoke
    began = time.monotonic()
    failures = []
    emitted = set()
    for workload in workload_names(bench):
        line, record, raw = measure(binary, info, bench, workload, args.seed, seconds, trace,
                                    smoke=args.smoke)
        print("record " + json.dumps(record))
        if args.smoke:
            # A traced run also carries the end-to-end metrics; both sets
            # must be present, finite and in their units.
            print_metrics(workload, select_metrics(raw, bench["end_to_end"], fill_missing=False))
            emitted.update(raw["metrics"])
        print_metrics(workload, line["metrics"])
        print_metrics(workload, record["reported"])
        print(f"{workload} attempted {line['attempted']} failed {line['failed']} "
              f"correct {str(line['correct']).lower()}", flush=True)
        if not line["correct"]:
            failures.append(f"{workload}: a correctness probe failed ({record['probes']})")
    if args.smoke:
        for spec in bench["per_layer"]:
            if spec["name"] not in emitted:
                failures.append(f"per-layer metric {spec['name']} is emitted by no workload")
        log(f"smoke finished in {time.monotonic() - began:.1f} s")
    for failure in failures:
        log(failure)
    return 1 if failures else 0


def quartile_spread(values):
    """(median, IQR / median) as statistics.quantiles(n=4) gives them."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q2, (q3 - q1) / q2 if q2 else math.inf


def cmd_calibrate(args, bench):
    if args.runs < 4:
        raise Refused("quartiles need at least 4 runs")
    binary, info = prepare()
    seconds = bench["run_seconds"]
    names = workload_names(bench)
    values = {(w, m["name"]): [] for w in names for m in bench["end_to_end"]}
    exact = {}
    for seed in range(1, args.runs + 1):
        for workload in names:  # interleaved, so drift hits every workload alike
            line, record, _ = measure(binary, info, bench, workload, seed, seconds, False)
            if not line["correct"]:
                raise LedgerError(f"{workload} seed {seed}: a correctness probe failed")
            for name, m in line["metrics"].items():
                values[(workload, name)].append(m["value"])
            print(f"run {workload} seed {seed} " + " ".join(
                f"{name}={m['value']:.6g}" for name, m in line["metrics"].items()), flush=True)
            if seed == 1:
                exact[workload] = record["exact"]
    print(f"{'workload':<12} {'metric':<12} {'median':>12} {'iqr/med':>8} {'bound':>6}  verdict")
    status = 0
    for spec in bench["end_to_end"]:
        for workload in names:
            med, spread = quartile_spread(values[(workload, spec["name"])])
            bound = spec["bound"]
            verdict = ("ok" if spread < bound / 3 else "noisy" if spread < bound else "too noisy")
            if spec["name"] != "setup_s" and spread >= bound:
                status = 1
            print(f"{workload:<12} {spec['name']:<12} {med:>12.5g} {spread:>8.3f} {bound:>6.2f}"
                  f"  {verdict}")
    for workload in names:
        _, record, _ = measure(binary, info, bench, workload, 1, seconds, False)
        same = same_exact(record["exact"], exact[workload])
        print(f"{workload:<12} exact metrics repeat at seed 1: {'yes' if same else 'NO'}")
        if not same:
            status = 1
    return status


def run_checkout(checkout, workload, seed, seconds):
    """One run of another checkout's own ledger, built in its own tree."""
    env = {k: v for k, v in os.environ.items() if k != "CARGO_TARGET_DIR"}
    cmd = [sys.executable, str(checkout / "ledger" / "ledger.py"), "workload",
           "--workload", workload, "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    try:
        proc = subprocess.run(cmd, cwd=checkout, env=env, stdout=subprocess.PIPE, text=True,
                              timeout=BUILD_TIMEOUT_S + RUN_TIMEOUT_S, check=False)
    except subprocess.TimeoutExpired as e:
        raise LedgerError(f"{checkout}: {workload} timed out") from e
    if proc.returncode != 0:
        raise LedgerError(f"{checkout}: {workload} seed {seed} exited {proc.returncode}")
    lines = proc.stdout.strip().splitlines()
    record = json.loads(lines[-2].removeprefix("record "))
    return json.loads(lines[-1]), record


def verdict(spec, parent, change):
    lower = spec["better"] == "lower"
    better = (lambda a, b: a < b) if lower else (lambda a, b: a > b)
    p_med, p_spread = quartile_spread(parent)
    c_med = statistics.median(change)
    wins = sum(better(c, p) for p, c in zip(parent, change))
    worse_by = ((c_med - p_med) if lower else (p_med - c_med)) / p_med
    if better(c_med, p_med) and wins >= 0.9 * len(parent) and abs(c_med - p_med) > p_spread * p_med:
        result = "gain"
    elif all(better(c, p) for c in change for p in parent):
        result = "better in every run"
    elif p_spread > spec["bound"]:
        result = "unresolved (parent spread exceeds the bound)"
    elif worse_by > spec["bound"]:
        result = "regression"
    else:
        result = "within bound"
    return p_med, c_med, wins, result


def cmd_compare(args, bench):
    if args.pairs < 4:
        raise Refused("quartiles need at least 4 pairs")
    seconds = bench["run_seconds"]
    sides = {"parent": Path(args.parent).resolve(), "change": Path(args.change).resolve()}
    names = workload_names(bench)
    values = {(s, w, m["name"]): [] for s in sides for w in names for m in bench["end_to_end"]}
    exact_changed = set()
    for workload in names:
        for i in range(args.pairs):
            seed = i + 1
            order = ["parent", "change"] if i % 2 == 0 else ["change", "parent"]
            exact = {}
            for side in order:
                line, record = run_checkout(sides[side], workload, seed, seconds)
                if not line["correct"]:
                    raise LedgerError(f"{side} {workload} seed {seed}: a probe failed")
                for name, m in line["metrics"].items():
                    values[(side, workload, name)].append(m["value"])
                exact[side] = record["exact"]
            if not same_exact(exact["parent"], exact["change"]):
                exact_changed.add(workload)
    print(f"{'workload':<12} {'metric':<12} {'parent':>12} {'change':>12} {'wins':>6}  verdict")
    status = 0
    for workload in names:
        for spec in bench["end_to_end"]:
            p_med, c_med, wins, result = verdict(spec, values[("parent", workload, spec["name"])],
                                                 values[("change", workload, spec["name"])])
            if result == "regression":
                status = 1
            print(f"{workload:<12} {spec['name']:<12} {p_med:>12.5g} {c_med:>12.5g} "
                  f"{wins:>3}/{args.pairs:<2}  {result}")
        if workload in exact_changed:
            print(f"{workload:<12} exact metrics differ at equal seeds: the arithmetic changed")
    return status


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("workload", help="one run in the benchmark's output format")
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p = sub.add_parser("run", help="every workload once, one line per metric")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--trace", action="store_true")
    p.add_argument("--smoke", action="store_true")
    p = sub.add_parser("calibrate", help="median and IQR per metric and workload")
    p.add_argument("--runs", type=int, default=5)
    p = sub.add_parser("compare", help="parent vs change, alternating pairs")
    p.add_argument("--parent", required=True)
    p.add_argument("--change", required=True)
    p.add_argument("--pairs", type=int, default=10)
    args = parser.parse_args()

    commands = {"workload": cmd_workload, "run": cmd_run, "calibrate": cmd_calibrate,
                "compare": cmd_compare}
    try:
        return commands[args.command](args, load_benchmark())
    except Refused as e:
        log(str(e))
        return 2
    except (LedgerError, OSError, ValueError, KeyError) as e:
        log(f"error: {e}")
        return 1


if __name__ == "__main__":
    sys.exit(main())
