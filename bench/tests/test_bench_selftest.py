"""Self-test of the benchmark: tracing must not change any output, spans
must nest, and the runner must honour its output contract.

Run from the repository root:  python3 -m pytest -q bench/tests
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(ROOT / "src"), str(BENCH)]

import edgematch as em  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402


def canonical(name: str, out) -> bytes:
    """The bytes a user would compare: EDGESET text, match JSON, mc tuple."""
    if name == "extract":
        return out
    if name == "register":
        return json.dumps(out.to_json_dict(), sort_keys=True).encode()
    if name == "search":
        return json.dumps([[i, r.to_json_dict()] for i, r in out], sort_keys=True).encode()
    return repr(out).encode()


@pytest.fixture(params=workloads.NAMES)
def small_run(request, tmp_path):
    wl = workloads.make(request.param, tmp_path / "work")
    state = wl.setup(seed=7, small=True)
    if hasattr(wl, "reference"):
        wl.reference(state)
    yield request.param, wl, state
    if hasattr(wl, "teardown"):
        wl.teardown(state)


def test_traced_outputs_identical_and_spans_nest(small_run):
    name, wl, state = small_run
    n_ops = 2 * wl.CYCLE
    plain = [canonical(name, wl.op(*wl.prepare(state, k))) for k in range(n_ops)]
    tracer = tracing.Tracer()
    with tracer:
        traced = []
        for k in range(n_ops):
            tracer.op = k
            out = wl.op(*wl.prepare(state, k))
            traced.append(canonical(name, out))
            assert wl.check(state, k, out).sound
    assert traced == plain
    assert tracer.spans

    spans = tracer.spans
    for s in spans:
        assert s[2] <= s[3]
        if s[4] >= 0:
            parent = spans[s[4]]
            assert parent[2] <= s[2] and s[3] <= parent[3], (parent, s)
            assert parent[5] == s[5]
    children = {}
    for s in spans:
        children.setdefault(s[4], []).append(s)
    for kids in children.values():
        for a, b in zip(kids, kids[1:]):
            assert a[3] <= b[2], (a, b)
    assert all(own >= -1e-9 for own in tracing.self_times(spans))


def test_uninstall_restores_every_binding(small_run):
    _, wl, state = small_run
    before = {(m, n): getattr(getattr(em, m), n) for m, n, _, _ in tracing.WRAPPED}
    arrays = em.EdgeSet.arrays
    with tracing.Tracer():
        assert em.verify.match is not before["verify", "match"]
        assert em.match is em.verify.match
    assert {(m, n): getattr(getattr(em, m), n) for m, n, _, _ in tracing.WRAPPED} == before
    assert em.match is before["verify", "match"]
    assert em.EdgeSet.arrays is arrays


def test_layer_metrics_cover_every_name(small_run):
    _, wl, state = small_run
    tracer = tracing.Tracer()
    with tracer:
        tracer.op = 0
        wl.op(*wl.prepare(state, 0))
    metrics = tracing.layer_metrics(tracer.spans, workers=workloads.nproc())
    from_run = {"trace.overhead_frac"} | {f"verify.{k}_fail_frac" for k in workloads.HARD_KINDS}
    assert set(metrics) | from_run == set(tracing.LAYER_METRICS)
    assert not set(metrics) & from_run


def test_hard_pairs_are_judged_outside_the_timed_pool():
    wl = workloads.make("register", Path("unused"))
    hard = wl.hard_failures(seed=7, small=True)
    assert set(hard) == set(workloads.HARD_KINDS)
    assert all(0 <= bad <= tried and tried > 0 for bad, tried in hard.values())


def test_runner_prints_contract_line(tmp_path):
    checkout = tmp_path / "checkout"
    shutil.copytree(BENCH, checkout / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(ROOT / "src", checkout / "src", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc", "--seed", "3",
         "--seconds", "0.5", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    last = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] is True and last["attempted"] >= 1 and last["failed"] == 0
    assert set(last["metrics"]) == {"setup_s", "ops_per_s", "latency_p50_ms",
                                    "latency_tail_ms", "peak_rss_mb"}
    assert all(m["value"] > 0 for m in last["metrics"].values())


def test_runner_refuses_without_sources(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "mc", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
