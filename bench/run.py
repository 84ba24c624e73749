#!/usr/bin/env python3
"""Run one benchmark workload against the edgematch sources of this checkout.

    python3 bench/run.py --workload {extract,register,search,mc} --seed N \
        --seconds S --trace {0,1}

With --trace 0 the run sets up the inputs SETUP_REPEATS times (set-up time
is the median), then runs operations in a closed loop for S seconds and
prints the end-to-end metrics.  With --trace 1 it sets up once under the
tracer, runs S/2 seconds untraced and S/2 seconds traced on the same
operation sequence, then judges the hard true pairs of `register` untraced,
and prints the per-layer metrics.  Either way it checks
every output, prints a human-readable report, and ends with one JSON line:
{"correct", "attempted", "failed", "metrics"}.  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

SETUP_REPEATS = 3
WARMUP_S = 2.0

# Tail percentile per workload: the highest percentile that leaves at least
# ten samples beyond it at the run length in BENCHMARK.json (see README).
TAIL_PCT = {"extract": 85, "register": 70, "search": 65, "mc": 85}

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def import_program():
    """Import edgematch from this checkout's src/ and nowhere else."""
    if not (SRC / "edgematch" / "__init__.py").is_file():
        sys.exit(f"error: no edgematch sources at {SRC}")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import edgematch

    if Path(edgematch.__file__).resolve().parent != SRC / "edgematch":
        sys.exit(f"error: imported edgematch from {edgematch.__file__}, not {SRC}")
    return edgematch


def machine_info(np_version: str, nproc: int) -> dict:
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next((ln.split(":", 1)[1].strip() for ln in f
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    return {"nproc": nproc, "cpu": cpu, "python": platform.python_version(),
            "numpy": np_version}


class Loop:
    """Outcome of one closed-loop phase."""

    def __init__(self):
        self.latency: list[float] = []
        self.failed = 0
        self.unsound = 0
        self.errors: list[str] = []
        self.err_px: list[float] = []
        self.digests: list[str] = []


def warm_up(wl, state) -> None:
    """Run whole cycles, unrecorded, for WARMUP_S seconds.

    The first seconds of ops in a fresh process run up to twice as slow
    (allocator and page-cache growth); users of a long-lived caller do not
    pay that on every op.
    """
    deadline = time.perf_counter() + WARMUP_S
    k = 0
    while k % wl.CYCLE or time.perf_counter() < deadline:
        wl.op(*wl.prepare(state, k))
        k += 1


def run_loop(wl, state, seconds: float, tracer=None) -> Loop:
    """Run ops until `seconds` have passed, stopping only at a cycle boundary.

    Only the op itself is timed; its check runs afterwards with the tracer
    paused.
    """
    res = Loop()
    deadline = time.perf_counter() + seconds
    k = 0
    while k % wl.CYCLE or time.perf_counter() < deadline:
        inputs = wl.prepare(state, k)
        if tracer is not None:
            tracer.op = k
            tracer.active = True
        t0 = time.perf_counter()
        try:
            out = wl.op(*inputs)
            exc = None
        except Exception as e:  # an op that raises is a failed, incorrect op
            exc = e
        res.latency.append(time.perf_counter() - t0)
        if tracer is not None:
            tracer.active = False
        if exc is None:
            try:
                outcome = wl.check(state, k, out)
            except Exception as e:
                exc = e
        if exc is not None:
            res.failed += 1
            res.unsound += 1
            res.errors.append(f"op {k}: {type(exc).__name__}: {exc}")
            res.digests.append("")
        else:
            res.failed += not outcome.ok
            res.unsound += not outcome.sound
            res.digests.append(outcome.digest)
            if outcome.err_px is not None:
                res.err_px.append(outcome.err_px)
        k += 1
    return res


def percentile(values: list[float], pct: int) -> float:
    """Linear-interpolation percentile, as statistics.quantiles(inclusive)."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def import_seconds() -> float:
    """Wall time of a fresh interpreter importing edgematch from src/."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", "import edgematch"], cwd=ROOT, env=env, check=True)
    return time.perf_counter() - t0


def setup_once(wl, seed: int):
    t0 = time.perf_counter()
    state = wl.setup(seed)
    return state, time.perf_counter() - t0


def teardown(wl, state) -> None:
    if hasattr(wl, "teardown"):
        wl.teardown(state)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    em = import_program()
    import numpy as np

    import tracing
    import workloads

    if args.workload not in workloads.NAMES:
        sys.exit(f"error: unknown workload {args.workload!r}; "
                 f"choose from {', '.join(workloads.NAMES)}")
    if args.seed < 0 or args.seconds <= 0:
        sys.exit("error: --seed must be >= 0 and --seconds > 0")
    wl = workloads.make(args.workload, OUT_DIR / "work")
    machine = machine_info(np.__version__, workloads.nproc())
    print(f"bench workload={args.workload} seed={args.seed} seconds={args.seconds:g} "
          f"trace={args.trace} edgematch={em.__version__}")
    print("machine " + json.dumps(machine, sort_keys=True))

    tracer = None
    states = []
    setup_times = []
    try:
        if args.trace:
            tracer = tracing.Tracer().install()
            state, _ = setup_once(wl, args.seed)
            tracer.active = False
            states.append(state)
        else:
            for _ in range(SETUP_REPEATS):
                imp = import_seconds()
                state, dt = setup_once(wl, args.seed)
                states.append(state)
                setup_times.append((imp, dt))
            for extra in states[:-1]:
                teardown(wl, extra)
            states = states[-1:]
        state = states[0]
        digest = wl.digest(state)
        print("inputs " + json.dumps({"seed": args.seed, "digest": digest}))
        if hasattr(wl, "reference"):
            if tracer is not None:
                tracer.op, tracer.active = tracing.REFERENCE_OP, True
            wl.reference(state)
        if tracer is not None:
            tracer.uninstall()

        warm_up(wl, state)
        if args.trace:
            plain = run_loop(wl, state, args.seconds / 2)
            traced = run_loop(wl, state, args.seconds / 2, tracer.install())
            loops = [plain, traced]
            mismatched = sum(a != b for a, b in zip(plain.digests, traced.digests))
        else:
            loops = [run_loop(wl, state, args.seconds)]
            mismatched = 0
    finally:
        if tracer is not None:
            tracer.uninstall()
        for st in states:
            teardown(wl, st)

    attempted = sum(len(lp.latency) for lp in loops)
    failed = sum(lp.failed for lp in loops)
    unsound = sum(lp.unsound for lp in loops)
    for lp in loops:
        for line in lp.errors[:5]:
            print("error " + line)
    correct = unsound == 0 and mismatched == 0
    result = {"workload": args.workload, "seed": args.seed, "trace": args.trace,
              "machine": machine, "inputs_digest": digest,
              "attempted": attempted, "failed": failed, "unsound": unsound,
              "trace_mismatches": mismatched}

    # Reported for reading, not compared between runs: both can be 0 or
    # undefined on a workload, which the run-to-run bounds cannot hold.
    err_px = [e for lp in loops for e in lp.err_px]
    result["fail_frac"] = failed / attempted
    result["reg_err_px"] = statistics.median(err_px) if err_px else None
    print(f"metric fail_frac {failed / attempted:.6f} ratio ({failed}/{attempted} failed)")
    if err_px:
        print(f"metric reg_err_px {result['reg_err_px']:.6f} px "
              f"(median of {len(err_px)} accepted true pairs)")
    else:
        print("metric reg_err_px n/a px (no accepted true pairs in this workload)")

    def ops_per_s(lp: Loop) -> float:
        return len(lp.latency) / sum(lp.latency)

    if args.trace:
        metrics = tracing.layer_metrics(tracer.spans, workloads.nproc())
        metrics["trace.overhead_frac"] = ops_per_s(loops[0]) / ops_per_s(loops[1]) - 1.0
        # Known defects, judged on pairs outside the timed loop (untraced).
        hard = wl.hard_failures(args.seed) if hasattr(wl, "hard_failures") else {}
        for kind in workloads.HARD_KINDS:
            bad, tried = hard.get(kind, (0, 0))
            metrics[f"verify.{kind}_fail_frac"] = bad / tried if tried else 0.0
            result[f"hard_{kind}"] = {"failed": bad, "tried": tried}
            if tried:
                print(f"note verify.{kind}_fail_frac: {bad} of {tried} {kind} pairs failed")
        units = {k: u for k, (u, _) in tracing.LAYER_METRICS.items()}
        spans_path = OUT_DIR / f"spans-{args.workload}-seed{args.seed}.jsonl"
        tracer.write(spans_path, {k: result[k] for k in ("workload", "seed", "machine",
                                                         "inputs_digest")})
        print(f"spans {len(tracer.spans)} written to {spans_path.relative_to(ROOT)}")
    else:
        lp = loops[0]
        lat = lp.latency
        pct = TAIL_PCT[args.workload]
        metrics = {
            "setup_s": statistics.median(imp + dt for imp, dt in setup_times),
            "ops_per_s": ops_per_s(lp),
            "latency_p50_ms": 1e3 * statistics.median(lat),
            "latency_tail_ms": 1e3 * percentile(lat, pct),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        units = dict(END_TO_END)
        beyond = sum(v > metrics["latency_tail_ms"] / 1e3 for v in lat)
        print(f"note latency_tail_ms is p{pct}: {len(lat)} samples, {beyond} beyond it")
        print("note setup_s is the median of (imports + inputs) over "
              + ", ".join(f"({imp:.4f} + {dt:.4f})" for imp, dt in setup_times) + " s")

    for name, value in metrics.items():
        print(f"metric {name} {value:.6g} {units[name]}")
    result["metrics"] = metrics
    OUT_DIR.mkdir(parents=True, exist_ok=True)
    (OUT_DIR / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(result, indent=2, sort_keys=True) + "\n", encoding="utf-8")
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[k]} for k, v in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
