#!/usr/bin/env python3
"""Layered benchmark of homcert: two seeded workloads through the public
entry points, every output checked, per-layer spans on request.

Run from the root of a checkout:

    python3 perfbench/run.py --workload search --seed 1 --seconds 45 --trace 0

Workloads (see workloads.py): search, certify; `all` runs each in turn,
each in a fresh interpreter.  A run is closed-loop in one process: one
call after another, no threads.  It measures whole cycles of freshly
generated inputs until --seconds of timed work have passed, then checks
every output outside the timed region.  With --trace 1 it measures for
half of --seconds, then replays the same cycles, from the same cache
state, with every public homcert function wrapped in a span (spans.py),
and reports the per-layer metrics and the tracing overhead instead of
the end-to-end ones.

The metric names and units come from BENCHMARK.json at the checkout
root.  The last line a workload prints is one JSON object:
{"correct", "attempted", "failed", "metrics": {name: {"value", "unit"}}}.
The line before it records the backend, Python version, CPU count, git
revision and seed of the run.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import traceback
from pathlib import Path
from time import perf_counter
from types import SimpleNamespace

import workloads
from spans import Tracer

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
MODULES = ("bounds", "cli", "graphs", "homomorphism", "kernels", "spectral")
# Fresh-interpreter imports per run, spread over its timed seconds;
# set-up time is their median.
SETUP_REPEATS = 15
SETUP_TIMEOUT_S = 60
IMPORT_PROBE = (
    "import time; t = time.perf_counter(); import homcert.cli; "
    "print(time.perf_counter() - t)"
)


def fail(message):
    print(f"error: {message}", file=sys.stderr)
    return 1


def setup_probe():
    """Wall time of `import homcert.cli` in a fresh interpreter."""
    done = subprocess.run(
        [sys.executable, "-c", IMPORT_PROBE],
        cwd=ROOT,
        env=dict(os.environ, PYTHONPATH=str(SRC)),
        capture_output=True,
        text=True,
        timeout=SETUP_TIMEOUT_S,
        check=True,
    )
    return float(done.stdout)


def git_revision():
    """HEAD of the checkout when it is itself a git work tree, else None."""
    try:
        done = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True,
            text=True,
            timeout=10,
        )
    except (OSError, subprocess.TimeoutExpired):
        return None
    out = done.stdout.split()
    if done.returncode or len(out) != 2 or Path(out[0]).resolve() != ROOT:
        return None
    return out[1]


def source_digest():
    """sha256 over the package sources, a revision stand-in without git."""
    h = hashlib.sha256()
    for p in sorted((SRC / "homcert").rglob("*")):
        if p.suffix in (".py", ".pyx", ".c") and "__pycache__" not in p.parts:
            h.update(p.relative_to(SRC).as_posix().encode())
            h.update(p.read_bytes())
    return h.hexdigest()[:16]


def run_pass(workload, seconds=None, cycles=None, setup=None):
    """Run whole cycles: until `seconds` of timed work, or exactly `cycles`
    of them.  Returns [(cycle, item, result, dt)].

    With a `setup` list, set-up probes are taken between items, untimed,
    whenever the timed work is ahead of their even spread over `seconds`,
    and topped up to SETUP_REPEATS at the end; the host's speed drifts
    over tens of seconds, and this way set-up time sees the same mix of
    speeds as the items do."""
    done = []
    spent = 0.0
    c = 0
    while spent < seconds if cycles is None else c < cycles:
        for item in workload.cycle(c):
            t0 = perf_counter()
            try:
                result = workload.run(item)
            except Exception as exc:  # counted as a failed item below
                traceback.print_exc()
                result = exc
            dt = perf_counter() - t0
            spent += dt
            done.append((c, item, result, dt))
            while setup is not None and len(setup) < min(
                SETUP_REPEATS, SETUP_REPEATS * spent / seconds
            ):
                setup.append(setup_probe())
        c += 1
    while setup is not None and len(setup) < SETUP_REPEATS:
        setup.append(setup_probe())
    return done


def check_all(workload, done):
    """Units of each item, and the total units of items whose outputs
    failed their check."""
    units = []
    failed = 0
    for _, item, result, _ in done:
        try:
            n, ok = workload.check(item, result)
        except Exception:  # a check that cannot run is a failed item
            traceback.print_exc()
            n, ok = 1, False
        units.append(n)
        failed += 0 if ok else n
    return units, failed


def end_to_end(done, units, setup_s, rss_mb):
    """Latency percentiles are taken within each cycle and averaged over
    the cycles of the run.  The host's speed drifts over tens of seconds,
    and a percentile pooled over the whole run jumps with whichever speed
    held most of it; the average over cycles blends them as throughput
    does."""
    cycles = {}
    for c, _, _, dt in done:
        cycles.setdefault(c, []).append(1e3 * dt)
    p50, p90 = [], []
    for ms in cycles.values():
        q = statistics.quantiles(ms, n=10, method="inclusive")
        p50.append(q[4])
        p90.append(q[8])
    return {
        "setup_s": (setup_s, "s"),
        "items_per_s": (sum(units) / sum(dt for *_, dt in done), "1/s"),
        "item_p50_ms": (statistics.fmean(p50), "ms"),
        "item_p90_ms": (statistics.fmean(p90), "ms"),
        "peak_rss_mb": (rss_mb, "MB"),
    }


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "--workload",
        required=True,
        help=f"one of {', '.join(workloads.WORKLOADS)}, or 'all' to run "
        "each in turn in a fresh interpreter",
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "homcert" / "__init__.py").is_file():
        return fail(f"no homcert sources under {SRC}")
    try:
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return fail(f"cannot read BENCHMARK.json: {exc}")
    declared = spec["per_layer" if args.trace else "end_to_end"]

    if args.workload == "all":
        flags = ["--seed", str(args.seed), "--seconds", str(args.seconds),
                 "--trace", str(args.trace)]
        codes = [
            subprocess.run(
                [sys.executable, __file__, "--workload", name, *flags],
                cwd=ROOT,
            ).returncode
            for name in workloads.WORKLOADS
        ]
        return max(codes)
    if args.workload not in workloads.WORKLOADS:
        return fail(f"unknown workload {args.workload!r}")

    sys.path.insert(0, str(SRC))
    setup = [setup_probe()]
    hc = SimpleNamespace(
        **{m: importlib.import_module(f"homcert.{m}") for m in MODULES}
    )
    env = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "backend": hc.kernels.BACKEND,
        "python": platform.python_version(),
        "nproc": os.cpu_count(),
        "git_revision": git_revision(),
        "source_digest": source_digest(),
    }

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT))
    try:
        ctx = workloads.Context(hc, args.seed, workdir)
        wl = workloads.WORKLOADS[args.workload](ctx)
        if args.trace:
            done = run_pass(wl, seconds=args.seconds / 2)
        else:
            done = run_pass(wl, seconds=args.seconds, setup=setup)
        cycles = done[-1][0] + 1
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        if args.trace:
            # Replay the same inputs from the same cache state, so that the
            # traced-minus-untraced time is the cost of tracing alone.
            hc.spectral._power_diag_and_trace.cache_clear()
            tracer = Tracer()
            with tracer:
                traced = run_pass(wl, cycles=cycles)
        else:
            traced = []
        units, failed = check_all(wl, done + traced)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if args.trace:
        metrics = tracer.layer_metrics()
        plain = sum(dt for *_, dt in done)
        overhead = sum(dt for *_, dt in traced) - plain
        metrics["trace.overhead_s"] = (overhead, "s")
        metrics["trace.overhead_frac"] = (overhead / plain, "ratio")
    else:
        metrics = end_to_end(done, units, statistics.median(setup), rss_mb)

    names = {m["name"] for m in declared}
    if set(metrics) != names:
        return fail(
            "computed metrics differ from BENCHMARK.json: "
            f"missing {sorted(names - set(metrics))}, "
            f"undeclared {sorted(set(metrics) - names)}"
        )
    units_of = {m["name"]: m["unit"] for m in declared}
    for name, (value, unit) in metrics.items():
        if unit != units_of[name]:
            return fail(f"{name}: unit {unit} but BENCHMARK.json says "
                        f"{units_of[name]}")

    attempted = sum(units)
    env["cycles"] = cycles
    env["latency_samples"] = len(done)
    env["failed_frac"] = failed / attempted
    print(f"{args.workload}: {attempted} units, {failed} failed, "
          f"{cycles} cycles, backend {env['backend']}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:<44} {value:>14.6g} {unit}")
    print(f"  {'failed_frac':<44} {env['failed_frac']:>14.6g} ratio")
    print(json.dumps({"env": env}, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit}
            for name, (value, unit) in metrics.items()
        },
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
