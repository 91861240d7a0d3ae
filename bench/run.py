#!/usr/bin/env python3
"""Benchmark of cuspcount: seeded query workloads, timed end to end, with a
separate traced run for per-layer metrics.

    python3 bench/run.py --workload ur-family --seed 1 --seconds 30 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 30 --trace 1
    python3 bench/run.py --self-check

Run from the root of a source checkout: the package is imported from
./src.  Each run is a closed loop with one client in one process, no
threads; the queries of a run share that process's caches, as a library
batch does, and every run starts in a fresh interpreter, so the caches
start cold.  The last line of output is one JSON object with the keys
correct, attempted, failed and metrics.  With --trace 0 the metrics are the
end-to-end ones; with --trace 1 a fixed number of rounds of the workload
is run twice, untraced and traced, and the metrics are the per-layer ones
plus the tracing overhead.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import itertools
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from fractions import Fraction

from workloads import WORKLOADS, gram_of

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
PACKAGE_DIR = os.path.join(SRC, "cuspcount")
WORK_ROOT = os.path.join(ROOT, ".bench_run")

# Seeds: tune on DEV_SEED only; HELDOUT_SEED rechecks a claim on inputs its
# author did not tune on.
DEV_SEED = 1
HELDOUT_SEED = 20081
SETUP_PROBES = 8  # extra fresh interpreters that only import and generate
RUN_BUDGET_S = 170  # every child process is killed after this much of a run
TAIL_FALLBACK = (80, 75, 50)
TAIL_MIN_BEYOND = 10
REFERENCE_S = 0.004  # reported times are scaled to a host on which the reference task takes this


def _reference_task():
    """A fixed few milliseconds of the interpreter work the package does:
    exact Fractions, tuple keys, dict updates."""
    acc = Fraction(0)
    table = {}
    for i in range(1, 400):
        acc = (acc + Fraction(i % 97 + 1, i % 89 + 2)) % 7
        key = (i % 37, i % 41, i % 43)
        table[key] = table.get(key, 0) + acc.denominator % 7
    return len(table)


def _reference_s():
    """Seconds the reference task takes now.

    Other tenants of a shared host slow this process down by up to a half,
    in stretches from a fraction of a second to minutes.  Timing the
    reference task next to every query, and scaling the query's time by
    REFERENCE_S over the reference's, cancels that slowdown; a change to the
    package cannot move the reference.  The collector is paused so that the
    package's heap cannot slow the reference either."""
    gc.disable()
    try:
        start = time.perf_counter()
        _reference_task()
        return time.perf_counter() - start
    finally:
        gc.enable()


# --- child processes -----------------------------------------------------------


def _child_setup(args):
    """Import the package and generate the first round of inputs.

    Returns (rounds, workdir, seconds): `rounds` iterates over the rounds of
    queries, the first one already generated.  Later rounds are generated
    between rounds, outside the timed calls.  The seconds are scaled by the
    reference task, timed just after."""
    start = time.perf_counter()
    sys.path.insert(0, SRC)
    import cuspcount
    import cuspcount.cli  # noqa: F401  (the CLI workloads need it)

    if not os.path.abspath(cuspcount.__file__).startswith(PACKAGE_DIR + os.sep):
        raise SystemExit(f"imported cuspcount from {cuspcount.__file__}, not from {SRC}")
    workdir = _make_workdir()
    rounds = WORKLOADS[args.workload](args.seed, workdir).rounds()
    first = next(rounds)
    setup_s = time.perf_counter() - start
    scale = REFERENCE_S / statistics.median(_reference_s() for _ in range(5))
    return itertools.chain([first], rounds), workdir, setup_s * scale


def _child_main(args):
    rounds, workdir, setup_s = _child_setup(args)
    try:
        result = {"setup_s": setup_s}
        if args.child == "pass":
            result.update(_run_queries(rounds, args))
        print(json.dumps(result))
    finally:
        _remove_workdir(workdir)


def _make_workdir():
    os.makedirs(WORK_ROOT, exist_ok=True)
    return tempfile.mkdtemp(dir=WORK_ROOT)


def _remove_workdir(workdir):
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        os.rmdir(WORK_ROOT)
    except OSError:  # another child still works there
        pass


def _run_queries(rounds_iter, args):
    tracer = None
    if args.traced:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    # raw: (seconds, index in `reference` of the timing just before the query)
    raw, reference, attempted, failed, stdout_bytes = [], [], 0, 0, 0
    rounds = 0
    start = time.perf_counter()
    # whole rounds only, so every run does the same mix of work
    for queries in rounds_iter:
        if args.rounds and rounds >= args.rounds:
            break
        if args.seconds and time.perf_counter() - start >= args.seconds:
            break
        reference.append(_reference_s())
        for query in queries:
            attempted += 1
            answer = elapsed = None
            t0 = time.perf_counter()
            try:
                answer = query.call()
                elapsed = time.perf_counter() - t0
            except Exception:  # a query that raises failed
                traceback.print_exc(file=sys.stderr)
            if elapsed is not None:
                raw.append((elapsed, len(reference) - 1))
            reference.append(_reference_s())
            try:
                ok = elapsed is not None and query.check(answer) is True
            except Exception:  # an answer that cannot be read is wrong
                ok = False
                traceback.print_exc(file=sys.stderr)
            if not ok:
                failed += 1
                print(f"failed: {query.label}: {answer!r:.200}", file=sys.stderr)
            if isinstance(answer, tuple):
                stdout_bytes += len(answer[1].encode())
        rounds += 1
    # scale by the median of the six reference timings around the query: a
    # single timing jitters, a slow stretch of the host lasts longer
    latencies = [
        elapsed * REFERENCE_S / statistics.median(reference[max(0, k - 2):k + 4])
        for elapsed, k in raw
    ]
    result = {
        "rounds": rounds,
        "attempted": attempted,
        "failed": failed,
        "latencies": latencies,
        "raw_latencies": [elapsed for elapsed, _ in raw],
        "reference_s": statistics.median(reference) if reference else None,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    if tracer is not None:
        from tracer import layer_metrics

        result["layers"] = layer_metrics(tracer, sum(result["raw_latencies"]), stdout_bytes)
        result["missing_hooks"] = tracer.missing
    return result


def _spawn(extra, deadline):
    argv = [sys.executable, os.path.abspath(__file__), *extra]
    env = dict(os.environ)
    env.pop("CUSPCOUNT_BUDGET", None)  # every run uses the package's default budget
    timeout = max(1.0, deadline - time.monotonic())
    proc = subprocess.run(argv, cwd=ROOT, env=env, capture_output=True, text=True, timeout=timeout)
    sys.stderr.write(proc.stderr)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"benchmark child {extra} exited with code {proc.returncode}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


# --- metrics -------------------------------------------------------------------


def _percentile(sorted_values, pct):
    """Nearest-rank percentile and the number of samples above its rank."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def _tail(latencies, target):
    """The workload's tail percentile, or the highest fallback that still has
    TAIL_MIN_BEYOND samples beyond it.  The target is fixed per workload, not
    chosen from the sample count, so a faster program is not compared at a
    higher percentile than a slower one."""
    values = sorted(latencies)
    for pct in (target,) + tuple(p for p in TAIL_FALLBACK if p < target):
        value, beyond = _percentile(values, pct)
        if beyond >= TAIL_MIN_BEYOND or pct == TAIL_FALLBACK[-1]:
            return value, pct, beyond


def _source_info():
    digest = hashlib.sha256()
    for name in sorted(os.listdir(PACKAGE_DIR)):
        path = os.path.join(PACKAGE_DIR, name)
        if os.path.isfile(path) and name.endswith((".py", ".json")):
            digest.update(name.encode() + b"\0")
            with open(path, "rb") as handle:
                digest.update(handle.read())
    rev = "unavailable"
    try:
        proc = subprocess.run(
            ["git", "-C", ROOT, "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=10,
        )
        lines = proc.stdout.split()
        # a checkout that is not a repository of its own has no revision
        if proc.returncode == 0 and len(lines) == 2 and os.path.samefile(lines[0], ROOT):
            rev = lines[1]
    except (OSError, subprocess.TimeoutExpired):
        pass
    return rev, digest.hexdigest()[:16]


def run_workload(name, seed, seconds, trace):
    """One benchmark run; returns (info, result)."""
    workload = WORKLOADS[name]
    deadline = time.monotonic() + RUN_BUDGET_S
    base = ["--workload", name, "--seed", str(seed)]
    if trace:
        count = ["--seconds", "0", "--rounds", str(workload.trace_rounds)]
        passes = [
            _spawn(["--child", "pass", *base, *count], deadline),
            _spawn(["--child", "pass", *base, *count, "--traced"], deadline),
        ]
    else:
        setups = [_spawn(["--child", "setup", *base], deadline)["setup_s"] for _ in range(SETUP_PROBES)]
        passes = [_spawn(["--child", "pass", *base, "--seconds", repr(seconds)], deadline)]
    if not all(p["latencies"] for p in passes):
        raise SystemExit("bench: no query completed; the failures are above")
    if trace:
        plain, traced = passes
        metrics = dict(traced["layers"])
        # scaled query times, so that a slow stretch of the host cancels out
        metrics["trace.overhead"] = (sum(traced["latencies"]) / sum(plain["latencies"]), "ratio")
        metrics["trace.untraced_query_s"] = (sum(plain["raw_latencies"]), "s")
        tail_pct = beyond = None
    else:
        (run,) = passes
        lat = run["latencies"]
        tail, tail_pct, beyond = _tail(lat, workload.tail_pct)
        attempted = run["attempted"]
        metrics = {
            "setup_s": (statistics.median(setups + [run["setup_s"]]), "s"),
            # one client, closed loop: completed queries over the time spent in them
            "queries_per_s": (len(lat) / sum(lat), "1/s"),
            "query_p50_s": (statistics.median(lat), "s"),
            "query_tail_s": (tail, "s"),
            "success_rate": ((attempted - run["failed"]) / attempted, "ratio"),
            "peak_rss_mb": (run["peak_rss_mb"], "MB"),
        }
    attempted = sum(p["attempted"] for p in passes)
    failed = sum(p["failed"] for p in passes)
    rev, src_digest = _source_info()
    info = {
        "workload": name,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "git_rev": rev,
        "src_sha256": src_digest,
        "rounds": [p["rounds"] for p in passes],
        "queries": [p["attempted"] for p in passes],
        "tail_percentile": tail_pct,
        "tail_samples_beyond": beyond,
        "reference_ms": [p["reference_s"] and round(p["reference_s"] * 1000, 3) for p in passes],
        "unscaled_query_p50_s": [round(statistics.median(p["raw_latencies"]), 6) for p in passes],
        "missing_hooks": passes[-1].get("missing_hooks", []),
    }
    result = {
        "correct": failed == 0 and attempted > 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    return info, result


def _print_table(info, result):
    print("info: " + json.dumps(info, sort_keys=True))
    for key, metric in result["metrics"].items():
        print(f"  {info['workload']:<11} {key:<52} {metric['value']:>16.6g} {metric['unit']}")


# --- self-check ---------------------------------------------------------------------


def _canonical(workload_cls, seed, rounds=5):
    inputs = itertools.islice(workload_cls(seed, None).inputs(), rounds)
    return json.dumps(list(inputs), sort_keys=True).encode()


def _first_round_failures(workload_cls, seed):
    """Labels of the queries in a seed's first round that miss their oracle."""
    workdir = _make_workdir()
    try:
        queries = next(workload_cls(seed, workdir).rounds())
        return len(queries), [q.label for q in queries if q.check(q.call()) is not True]
    finally:
        _remove_workdir(workdir)


def self_check():
    """Same seed gives byte-identical inputs, another seed different ones,
    and both seeds' answers match the oracles; the Gram builder agrees
    with the package's own lattice parser."""
    sys.path.insert(0, SRC)
    from cuspcount.cli import parse_lattice_spec

    checks = []
    for name, cls in WORKLOADS.items():
        dev, again, held = (_canonical(cls, s) for s in (DEV_SEED, DEV_SEED, HELDOUT_SEED))
        checks.append((f"{name}: seed {DEV_SEED} twice gives identical inputs", dev == again))
        checks.append((f"{name}: seeds {DEV_SEED} and {HELDOUT_SEED} give different inputs", dev != held))
        for tier in getattr(cls, "tiers", ()):
            label = tier[0] if isinstance(tier, tuple) else tier
            same = [list(r) for r in parse_lattice_spec(label).gram] == gram_of(label)
            checks.append((f"{name}: Gram of {label} matches the package's parser", same))
        for seed in (DEV_SEED, HELDOUT_SEED):
            count, bad = _first_round_failures(cls, seed)
            checks.append((f"{name}: seed {seed}: {count} answers match the oracles {bad or ''}", not bad))
    for text, ok in checks:
        print(f"{'PASS' if ok else 'FAIL'}  {text}")
    return all(ok for _, ok in checks)


# --- entry point ----------------------------------------------------------------------


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS) + ["all"])
    parser.add_argument("--seed", type=int, default=DEV_SEED)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--self-check", action="store_true")
    # internal: the run's child processes
    parser.add_argument("--child", choices=("setup", "pass"), help=argparse.SUPPRESS)
    parser.add_argument("--rounds", type=int, default=0, help=argparse.SUPPRESS)
    parser.add_argument("--traced", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(PACKAGE_DIR, "__init__.py")):
        print(f"bench: no cuspcount package under {SRC}; run from a source checkout", file=sys.stderr)
        return 2
    if args.child:
        _child_main(args)
        return 0
    if args.self_check:
        return 0 if self_check() else 1
    if args.workload is None:
        parser.error("--workload is required")
    names = sorted(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {}
    for name in names:
        info, result = run_workload(name, args.seed, args.seconds, args.trace)
        _print_table(info, result)
        results[name] = result
    if args.workload == "all":
        print(json.dumps({"workloads": results}))
    else:
        print(json.dumps(results[args.workload]))
    return 0


if __name__ == "__main__":
    sys.exit(main())
