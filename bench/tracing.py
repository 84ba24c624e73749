"""Spans around the calls into each edgematch layer, and the per-layer
metrics derived from them.

A `Tracer` replaces module attributes with timing shims at run time: every
edgematch module that binds a wrapped function gets the shim, so calls made
from inside the package (for example `verify.match` calling
`enumerate_basis_pairs`) are recorded as well as the benchmark's own calls.
Nothing under `src/` is modified; `uninstall` puts the originals back.

A span is `[id, name, start, end, parent, op, counts]`: times in seconds from
the tracer's creation, the id of the enclosing span (-1 at top level), the
operation index (-1 during set-up, -2 while computing check references) and
a dict of outcome counts taken at the same boundary.  Spans stay in memory
until `write` dumps them.  Wrapped calls are assumed to happen on the
calling thread only (true of every layer here: `monte_carlo_miss` uses
worker threads below the wrapped boundary).
"""

from __future__ import annotations

import json
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import edgematch as em

SETUP_OP = -1
REFERENCE_OP = -2


def _count_mc(args, kwargs, out):
    return {"trials": args[1] if len(args) > 1 else kwargs["trials"],
            "workers": kwargs.get("workers", args[4] if len(args) > 4 else 1)}


def _count_enumerate(args, kwargs, out):
    n = int(args[0].arrays().reliable.sum())
    return {"pairs_examined": n * (n - 1) // 2, "bases_out": len(out)}


# (module, attribute, span name, counter).  The counter maps
# (args, kwargs, result) to the outcome counts stored on the span.
WRAPPED = [
    ("image_io", "load_pgm", "image_io.load", lambda a, k, o: {"bytes": len(a[0])}),
    ("spectral", "spectral_gradient", "spectral.gradient", None),
    ("spectral", "isophote_curvature", "spectral.curvature", None),
    ("spectral", "extract_edges", "spectral.extract", lambda a, k, o: {"edges_out": len(o)}),
    ("edges", "serialize", "edges.serialize", lambda a, k, o: {"bytes": len(o)}),
    ("edges", "parse", "edges.parse", None),
    ("edges", "build_index", "edges.build_index", None),
    ("basis", "enumerate_basis_pairs", "basis.enumerate", _count_enumerate),
    ("basis", "find_compatible_pairs", "basis.compat", lambda a, k, o: {"couples_out": len(o)}),
    ("verify", "sequential_verify", "verify.screen", lambda a, k, o: {"pruned": int(o[1])}),
    ("verify", "count_coincidences", "verify.count", None),
    ("verify", "match", "verify.match", lambda a, k, o: {"branches": o.branches_tried}),
    ("gallery", "load_gallery", "gallery.load", None),
    ("gallery", "search", "gallery.search", None),
    ("gallery", "enroll", "gallery.enroll", None),
    ("probability", "monte_carlo_miss", "probability.mc", _count_mc),
    ("synth", "random_edge_set", "synth.random", None),
    ("synth", "corrupt_and_transform", "synth.corrupt", None),
    ("synth", "render_shapes", "synth.render", None),
]


class Tracer:
    """Records spans while `active`; `op` tags them with the current op."""

    def __init__(self):
        self.t0 = perf_counter()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.op = SETUP_OP
        self.active = True
        self._restore: list[tuple[object, str, object]] = []

    def _shim(self, name, orig, counter, record_if=None):
        tracer = self

        def shim(*args, **kwargs):
            if not tracer.active or (record_if is not None and not record_if(args)):
                return orig(*args, **kwargs)
            span = [len(tracer.spans), name, 0.0, 0.0,
                    tracer.stack[-1] if tracer.stack else -1, tracer.op, None]
            tracer.spans.append(span)
            tracer.stack.append(span[0])
            span[2] = perf_counter() - tracer.t0
            try:
                out = orig(*args, **kwargs)
            finally:
                span[3] = perf_counter() - tracer.t0
                tracer.stack.pop()
            if counter is not None:
                span[6] = counter(args, kwargs, out)
            return out

        shim.__wrapped__ = orig
        return shim

    def _patch(self, owner, attr, shim) -> None:
        self._restore.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, shim)

    def install(self) -> "Tracer":
        modules = [m for n, m in sorted(sys.modules.items())
                   if m is not None and (n == "edgematch" or n.startswith("edgematch."))]
        for mod_name, attr, name, counter in WRAPPED:
            orig = getattr(getattr(em, mod_name), attr)
            shim = self._shim(name, orig, counter)
            for mod in modules:
                for binding, value in list(vars(mod).items()):
                    if value is orig:
                        self._patch(mod, binding, shim)
        # Only calls that build the column cache are spans; cache hits are
        # frequent and cheap.
        self._patch(em.EdgeSet, "arrays", self._shim(
            "edges.arrays_build", em.EdgeSet.arrays, None,
            record_if=lambda a: getattr(a[0], "_cache", None) is None))
        return self

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    def __enter__(self) -> "Tracer":
        return self.install()

    def __exit__(self, *exc) -> None:
        self.uninstall()

    def write(self, path: Path, header: dict) -> None:
        """One JSON line of run header, then one line per span."""
        path.parent.mkdir(parents=True, exist_ok=True)
        keys = ("id", "name", "start", "end", "parent", "op", "counts")
        with open(path, "w", encoding="utf-8") as f:
            f.write(json.dumps(header, sort_keys=True) + "\n")
            for s in self.spans:
                f.write(json.dumps(dict(zip(keys, s))) + "\n")


def self_times(spans) -> list[float]:
    """Each span's duration minus the part of it its children cover."""
    own = [s[3] - s[2] for s in spans]
    for s in spans:
        if s[4] >= 0:
            own[s[4]] -= s[3] - s[2]
    return own


# Per-layer metric name -> (unit, better); the order is the report order.
LAYER_METRICS = {
    "image_io.load_s": ("s", "lower"),
    "image_io.mb_per_s": ("MB/s", "higher"),
    "spectral.gradient_s": ("s", "lower"),
    "spectral.curvature_s": ("s", "lower"),
    "spectral.nms_s": ("s", "lower"),
    "spectral.edges_out": ("count", "higher"),
    "edges.serialize_s": ("s", "lower"),
    "edges.serialize_mb": ("MB", "lower"),
    "edges.parse_s": ("s", "lower"),
    "edges.parse_calls": ("count", "lower"),
    "edges.build_index_s": ("s", "lower"),
    "edges.arrays_build_s": ("s", "lower"),
    "basis.enumerate_s": ("s", "lower"),
    "basis.pairs_examined": ("count", "lower"),
    "basis.bases_out": ("count", "lower"),
    "basis.bases_used_frac": ("ratio", "higher"),
    "basis.compat_s": ("s", "lower"),
    "basis.compat_calls": ("count", "lower"),
    "basis.couples_out": ("count", "lower"),
    "verify.screen_s": ("s", "lower"),
    "verify.branches": ("count", "lower"),
    "verify.pruned_frac": ("ratio", "higher"),
    "verify.count_s": ("s", "lower"),
    "verify.count_calls": ("count", "lower"),
    "verify.match_self_s": ("s", "lower"),
    "gallery.load_s": ("s", "lower"),
    "gallery.search_self_s": ("s", "lower"),
    "gallery.enroll_s": ("s", "lower"),
    "probability.mc_s": ("s", "lower"),
    "probability.mc_serial_s": ("s", "lower"),
    "probability.speedup": ("ratio", "higher"),
    "probability.trials_per_s": ("1/s", "higher"),
    "synth.random_s": ("s", "lower"),
    "synth.corrupt_s": ("s", "lower"),
    "synth.render_s": ("s", "lower"),
    "verify.crop_fail_frac": ("ratio", "lower"),
    "verify.scene_fail_frac": ("ratio", "lower"),
    "verify.corrupt_fail_frac": ("ratio", "lower"),
    "trace.overhead_frac": ("ratio", "lower"),
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(spans, workers: int) -> dict[str, float]:
    """Every per-layer metric except trace.overhead_frac and the
    verify.*_fail_frac figures, which do not come from spans.

    Timed-op spans (op >= 0) feed the layer metrics; set-up spans feed
    synth.* and gallery.enroll_s; reference spans feed
    probability.mc_serial_s.
    """
    own = self_times(spans)
    busy = defaultdict(float)   # (phase, name) -> seconds
    selfs = defaultdict(float)
    calls = defaultdict(int)
    counts = defaultdict(int)   # (phase, name, key) -> sum
    mc = {"serial_s": 0.0, "serial_trials": 0, "par_s": 0.0, "par_trials": 0}
    for s, own_s in zip(spans, own):
        phase = "op" if s[5] >= 0 else "setup" if s[5] == SETUP_OP else "ref"
        busy[phase, s[1]] += s[3] - s[2]
        selfs[phase, s[1]] += own_s
        calls[phase, s[1]] += 1
        for key, v in (s[6] or {}).items():
            counts[phase, s[1], key] += v
        if s[1] == "probability.mc":
            c = s[6]
            if c["workers"] == 1 and phase == "ref":
                mc["serial_s"] += s[3] - s[2]
                mc["serial_trials"] += c["trials"]
            elif c["workers"] == workers and phase == "op":
                mc["par_s"] += s[3] - s[2]
                mc["par_trials"] += c["trials"]

    def b(name):
        return busy["op", name]

    screens = calls["op", "verify.screen"]
    return {
        "image_io.load_s": b("image_io.load"),
        "image_io.mb_per_s": _ratio(counts["op", "image_io.load", "bytes"] / 1e6,
                                    b("image_io.load")),
        "spectral.gradient_s": b("spectral.gradient"),
        "spectral.curvature_s": b("spectral.curvature"),
        "spectral.nms_s": selfs["op", "spectral.extract"],
        "spectral.edges_out": counts["op", "spectral.extract", "edges_out"],
        "edges.serialize_s": b("edges.serialize"),
        "edges.serialize_mb": counts["op", "edges.serialize", "bytes"] / 1e6,
        "edges.parse_s": b("edges.parse"),
        "edges.parse_calls": calls["op", "edges.parse"],
        "edges.build_index_s": b("edges.build_index"),
        "edges.arrays_build_s": b("edges.arrays_build"),
        "basis.enumerate_s": b("basis.enumerate"),
        "basis.pairs_examined": counts["op", "basis.enumerate", "pairs_examined"],
        "basis.bases_out": counts["op", "basis.enumerate", "bases_out"],
        "basis.bases_used_frac": _ratio(calls["op", "basis.compat"],
                                        counts["op", "basis.enumerate", "bases_out"]),
        "basis.compat_s": b("basis.compat"),
        "basis.compat_calls": calls["op", "basis.compat"],
        "basis.couples_out": counts["op", "basis.compat", "couples_out"],
        "verify.screen_s": b("verify.screen"),
        "verify.branches": counts["op", "verify.match", "branches"],
        "verify.pruned_frac": _ratio(counts["op", "verify.screen", "pruned"], screens),
        "verify.count_s": b("verify.count"),
        "verify.count_calls": calls["op", "verify.count"],
        "verify.match_self_s": selfs["op", "verify.match"],
        "gallery.load_s": b("gallery.load"),
        "gallery.search_self_s": selfs["op", "gallery.search"],
        "gallery.enroll_s": busy["setup", "gallery.enroll"],
        "probability.mc_s": mc["par_s"],
        "probability.mc_serial_s": mc["serial_s"],
        "probability.speedup": _ratio(_ratio(mc["serial_s"], mc["serial_trials"]),
                                      _ratio(mc["par_s"], mc["par_trials"])),
        "probability.trials_per_s": _ratio(mc["par_trials"], mc["par_s"]),
        "synth.random_s": busy["setup", "synth.random"],
        "synth.corrupt_s": busy["setup", "synth.corrupt"],
        "synth.render_s": busy["setup", "synth.render"],
    }
