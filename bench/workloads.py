"""The four benchmark workloads: inputs from a seed, one operation, its check.

Every workload is a closed loop driven by one caller.  `setup` builds the
inputs from the seed alone; `prepare(state, k)` hands out the inputs of
operation k, `op(*inputs)` runs it through the public `edgematch` API and
returns its output, and `check(state, k, out)` judges that output.  Only
`op` is timed.  Edge sets are handed out as fresh copies, so every op
builds its own column cache and index as a caller holding a parsed file
would.  Operations come in cycles
(`CYCLE` ops); a run only stops at a cycle boundary, so every run holds the
same mix of input kinds.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import shutil
import tempfile
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import edgematch as em

FRAME = 512
SCENE_MARGIN = 12.0
SCENE_GAP = 16.0


@dataclass
class Outcome:
    """Verdict on one operation's output.

    ok: the workload's acceptance check held (a false `ok` counts in
    fail_frac).  sound: the output is well formed and self-consistent (a
    false `sound` makes the whole run incorrect).  err_px: registration
    error at the frame corners, for ops that recover a transform.  digest:
    hash of the output bytes, used to compare traced and untraced runs.
    """

    ok: bool
    sound: bool
    digest: str
    err_px: float | None = None


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng([seed, *tags])


def _sub_seed(seed: int, *tags: int) -> int:
    return int(_rng(seed, *tags).integers(0, 2**31 - 1))


def _sha(*chunks: bytes) -> str:
    h = hashlib.sha256()
    for c in chunks:
        h.update(hashlib.sha256(c).digest())
    return h.hexdigest()


def fresh(es: em.EdgeSet) -> em.EdgeSet:
    """A copy with no column cache built yet."""
    return em.EdgeSet(width=es.width, height=es.height, edges=es.edges)


def corner_error_px(est: em.Transform, truth: em.Transform, width: int, height: int) -> float:
    """Largest displacement, over the probe frame's four corners, between
    the estimated and the planted transform."""
    return max(
        math.hypot((est.s - truth.s) * cx + est.tx - truth.tx,
                   (est.s - truth.s) * cy + est.ty - truth.ty)
        for cx in (0.0, float(width)) for cy in (0.0, float(height))
    )


def transform_ok(est: em.Transform | None, truth: em.Transform) -> bool:
    """Criterion 6 of the acceptance tests: scale within 2%, shift within 2 px."""
    if est is None:
        return False
    return (abs(est.s - truth.s) / truth.s <= 0.02
            and math.hypot(est.tx - truth.tx, est.ty - truth.ty) <= 2.0)


def match_sound(res: em.MatchResult, accept_score: float) -> bool:
    """A MatchResult is consistent: the score follows from its counts, the
    decision from the score, and it survives a JSON round trip."""
    d = res.to_json_dict()
    if em.MatchResult.from_json_dict(d).to_json_dict() != d:
        return False
    m, n_ref, n_vis = res.counts
    expect = 2.0 * m / (n_ref + n_vis) if n_ref + n_vis else 0.0
    return (m == len(res.matched_pairs) and math.isclose(res.score, expect, abs_tol=1e-12)
            and res.decided == (res.score >= accept_score))


def random_scene(rng: np.random.Generator, count: int, outline: float,
                 width: int = FRAME, height: int = FRAME):
    """`count` separated disks and rectangles, the first one a disk, whose
    outlines sum to `outline` pixels.

    Shape sizes are drawn, then scaled together to the requested outline:
    extracted edges number about 1.05 per pixel of outline, so this fixes
    the scene's edge count while shapes and positions vary with the seed.
    Shapes keep SCENE_GAP pixels apart and SCENE_MARGIN from the border, so
    every extracted edge belongs to one shape and the disk check can pick
    its edges by radius.
    """
    for _ in range(1000):
        disk = [True] + [bool(rng.random() < 0.5) for _ in range(count - 1)]
        sizes = [(float(rng.uniform(20.0, 60.0)),) if d else
                 tuple(float(v) for v in rng.uniform(30.0, 160.0, 2)) for d in disk]
        total = sum(2.0 * math.pi * sz[0] if d else 2.0 * sum(sz)
                    for d, sz in zip(disk, sizes))
        sizes = [tuple(v * outline / total for v in sz) for sz in sizes]
        if min(min(sz) for sz in sizes) < 15.0:
            continue
        shapes, boxes = [], []
        for d, sz in zip(disk, sizes):
            w, h = (2.0 * sz[0], 2.0 * sz[0]) if d else sz
            if w > width - 2 * SCENE_MARGIN or h > height - 2 * SCENE_MARGIN:
                break
            for _ in range(50):
                x0 = float(rng.uniform(SCENE_MARGIN, width - SCENE_MARGIN - w))
                y0 = float(rng.uniform(SCENE_MARGIN, height - SCENE_MARGIN - h))
                if not any(x0 < b[2] + SCENE_GAP and b[0] < x0 + w + SCENE_GAP
                           and y0 < b[3] + SCENE_GAP and b[1] < y0 + h + SCENE_GAP
                           for b in boxes):
                    break
            else:
                break
            boxes.append((x0, y0, x0 + w, y0 + h))
            level = float(rng.uniform(0.4, 1.0))
            shapes.append(em.Disk(cx=x0 + sz[0], cy=y0 + sz[0], r=sz[0], intensity=level)
                          if d else em.Rect(x0=x0, y0=y0, w=w, h=h, intensity=level))
        if len(shapes) == count:
            return shapes
    raise ValueError(f"cannot place {count} shapes with a {outline} px outline")


def render_scene(shapes, width: int = FRAME, height: int = FRAME) -> em.GrayImage:
    return em.render_shapes(width, height, shapes, background=0.1)


# --------------------------------------------------------------------------
# extract: load_pgm -> extract_edges -> serialize


@dataclass
class ExtractItem:
    pgm: bytes
    disks: list


class Extract:
    # Shape counts of the scenes in one cycle: three P5 files, then one P2.
    SHAPES = (3, 5, 8, 5)
    CYCLE = len(SHAPES)

    def setup(self, seed: int, small: bool = False):
        items = []
        for k, count in enumerate(self.SHAPES):
            is_ascii = k == self.CYCLE - 1
            if small:
                shapes, size = [em.Disk(cx=48.0, cy=48.0, r=24.0, intensity=0.9)], 96
            else:
                shapes, size = random_scene(_rng(seed, 1, k), count, 250.0 * count), FRAME
            img = render_scene(shapes, size, size)
            disks = [sh for sh in shapes if isinstance(sh, em.Disk)]
            items.append(ExtractItem(em.save_pgm(img, ascii=is_ascii), disks))
        return items

    def digest(self, items) -> str:
        return _sha(*(it.pgm for it in items))

    def prepare(self, items, k: int):
        return (items[k % len(items)].pgm,)

    @staticmethod
    def op(pgm: bytes) -> bytes:
        return em.serialize(em.extract_edges(em.load_pgm(pgm)))

    def check(self, items, k: int, out: bytes) -> Outcome:
        es = em.parse(out)
        sound = em.serialize(es) == out
        arr = es.arrays()
        ok = sound and len(es) > 0
        for d in items[k % len(items)].disks:
            on = np.abs(np.hypot(arr.x - d.cx, arr.y - d.cy) - d.r) <= 2.0
            if not on.any():
                ok = False
                continue
            mean_abs = float(np.mean(np.abs(arr.kappa[on])))
            ok = ok and abs(mean_abs * d.r - 1.0) <= 0.15
        return Outcome(ok=ok, sound=sound, digest=_sha(out))


# --------------------------------------------------------------------------
# register: match(ref, probe) on a true pair


# Corruption of the probes in the timed loops: clutter and a little
# orientation jitter, but no dropout or position jitter.  Timed ops must all
# succeed, and at this commit `match` fails some true pairs under the
# HARD_CORRUPTION of the hard pairs, in three ways:
# - The top-ranked bases share the few most confident reference edges, so
#   dropping one or two of them leaves no true couple within the 50-branch
#   budget; the screen, which probes the same 20 most confident edges on
#   every branch, prunes every branch when six of them are gone.  Both
#   happened at dropout 0.02 (1 in 800 pairs at N = 2000).
# - Compatible probe couples are capped at ten per basis, ranked by the
#   residual of the second edge, which position jitter sets for the true
#   couple; at N = 2000 in 512² ten chance couples can rank above it.
# - Jitter of 0.5 px puts the recovered shift 1.4 px off at the 99th
#   percentile, close to the 2 px check.
# Orientation jitter of 0.02 rad stays 7 sigma inside every angle gate.
CORRUPTION = dict(dropout=0.0, jitter_pos=0.0, jitter_theta=0.02, clutter_frac=0.1)
HARD_CORRUPTION = dict(dropout=0.1, jitter_pos=0.5, jitter_theta=0.05, clutter_frac=0.1)


@dataclass
class Pair:
    ref: em.EdgeSet
    probe: em.EdgeSet
    truth: em.Transform


def full_overlap_truth(rng: np.random.Generator, frame: int, max_shift: float):
    """A planted transform and a probe frame that shows the whole reference.

    The probe edge at (p - t) / s stays inside the frame for every p in the
    reference frame when t is towards negative offsets and the probe frame
    spans (frame - t) / s.
    """
    truth = em.Transform(s=float(rng.uniform(0.9, 1.15)),
                         tx=float(rng.uniform(-max_shift, 0.0)),
                         ty=float(rng.uniform(-max_shift, 0.0)))
    w = math.ceil((frame - truth.tx) / truth.s) + 1
    h = math.ceil((frame - truth.ty) / truth.s) + 1
    return truth, w, h


def full_overlap_pair(ref: em.EdgeSet, seed: int, tag: int, corruption: dict) -> Pair:
    truth, w, h = full_overlap_truth(_rng(seed, 4, tag), ref.width, 20.0)
    spec = em.CorruptionSpec(**corruption, seed=_sub_seed(seed, 5, tag))
    return Pair(ref, em.corrupt_and_transform(ref, truth, spec, w, h), truth)


class Register:
    # Reference kinds of one cycle.  n2000 takes three of five slots, so the
    # median and the tail percentile both fall inside it, never on the
    # boundary between two kinds, where they would jump between runs.
    KINDS = ("n500", "n2000", "n1000", "n2000", "n2000")
    CYCLE = len(KINDS)
    # The pool holds 8 cycles, about what one run reaches; a longer run
    # reuses its pairs.
    POOL = 8 * CYCLE
    SCENE_OUTLINE = 1450.0
    HARD_CORRUPT_CYCLES = 4

    @staticmethod
    def _refs(seed: int, small: bool) -> dict:
        if small:
            return {f"n{n}": em.random_edge_set(200, 256, 256, seed=_sub_seed(seed, 2))
                    for n in (500, 1000, 2000)}
        return {f"n{n}": em.random_edge_set(n, FRAME, FRAME, seed=_sub_seed(seed, 2, n))
                for n in (500, 1000, 2000)}

    def setup(self, seed: int, small: bool = False):
        refs = self._refs(seed, small)
        return [full_overlap_pair(refs[self.KINDS[k % self.CYCLE]], seed, k, CORRUPTION)
                for k in range(2 * self.CYCLE if small else self.POOL)]

    def hard_pairs(self, seed: int, small: bool = False) -> dict:
        """True pairs that `match` does not yet register reliably, by defect.

        All use HARD_CORRUPTION.  "crop": partial-overlap crops at s = 1
        shifted by 30-50% of the frame, one per reference kind (ROADMAP open
        item 3: reference edges outside the probe frame count as misses in
        the screen).  "scene": full-overlap pairs on edges extracted from
        rendered scenes, which are sometimes accepted a little over 2 px
        off.  "corrupt": four cycles of the timed kinds, which the defects
        listed at CORRUPTION reject or register a little over 2 px off.  They are judged
        like the timed pairs, outside the timed loop, whose ops must all
        succeed.
        """
        refs = self._refs(seed, small)
        frame = refs["n500"].width
        for i in range(2):
            rng = _rng(seed, 3, i)
            if small:
                shapes = [em.Disk(cx=128.0, cy=128.0, r=60.0, intensity=0.9)]
            else:
                shapes = random_scene(rng, int(rng.integers(3, 9)), self.SCENE_OUTLINE)
            refs[f"scene{i}"] = em.extract_edges(render_scene(shapes, frame, frame))
        out = {"crop": [], "scene": [], "corrupt": []}
        tag = self.POOL
        for kind, ref in refs.items():
            rng = _rng(seed, 4, tag)
            spec = em.CorruptionSpec(**HARD_CORRUPTION, seed=_sub_seed(seed, 5, tag))
            tx = float(np.round(rng.uniform(0.3, 0.5) * frame))
            truth = em.Transform(s=1.0, tx=tx, ty=0.0)
            probe = em.corrupt_and_transform(ref, truth, spec, frame - int(tx), frame)
            out["crop"].append(Pair(ref, probe, truth))
            tag += 1
            if kind.startswith("scene"):
                for _ in range(2):
                    out["scene"].append(full_overlap_pair(ref, seed, tag, HARD_CORRUPTION))
                    tag += 1
        for k in range(self.CYCLE if small else self.HARD_CORRUPT_CYCLES * self.CYCLE):
            ref = refs[self.KINDS[k % self.CYCLE]]
            out["corrupt"].append(full_overlap_pair(ref, seed, tag, HARD_CORRUPTION))
            tag += 1
        return out

    @staticmethod
    def pair_ok(p: Pair, out: em.MatchResult) -> bool:
        return out.decided and transform_ok(out.transform, p.truth)

    def hard_failures(self, seed: int, small: bool = False) -> dict:
        """Per defect, (failed, tried) over the hard pairs of `seed`."""
        return {kind: (sum(not self.pair_ok(p, em.match(fresh(p.ref), fresh(p.probe)))
                           for p in pairs), len(pairs))
                for kind, pairs in self.hard_pairs(seed, small).items()}

    def digest(self, pairs) -> str:
        refs = {id(p.ref): p.ref for p in pairs}
        return _sha(*(em.serialize(r) for r in refs.values()),
                    *(em.serialize(p.probe) + repr(p.truth).encode() for p in pairs))

    def prepare(self, pairs, k: int):
        p = pairs[k % len(pairs)]
        return fresh(p.ref), fresh(p.probe)

    @staticmethod
    def op(ref: em.EdgeSet, probe: em.EdgeSet) -> em.MatchResult:
        return em.match(ref, probe)

    def check(self, pairs, k: int, out: em.MatchResult) -> Outcome:
        p = pairs[k % len(pairs)]
        sound = match_sound(out, em.VerifyConfig().accept_score)
        err = (corner_error_px(out.transform, p.truth, p.probe.width, p.probe.height)
               if out.decided else None)
        return Outcome(ok=sound and self.pair_ok(p, out), sound=sound, err_px=err,
                       digest=_sha(json.dumps(out.to_json_dict(), sort_keys=True).encode()))


# --------------------------------------------------------------------------
# search: load_gallery + search over 8 enrolled models


@dataclass
class Probe:
    edges: em.EdgeSet
    model: str | None
    truth: em.Transform | None


@dataclass
class SearchState:
    root: Path
    ids: list
    probes: list


class Search:
    # A hit probe, then two miss probes: misses take two thirds of the ops,
    # so the median and the tail percentile both fall inside them, never on
    # the gap between hits and misses.
    CYCLE = 3
    MODELS = 8
    POOL = 12 * CYCLE
    # 1000 edges in 522², the edge density of 1500 edges in 640², so that a
    # miss costs about a second and a run holds enough of them for the tail.
    MISS_EDGES, MISS_FRAME = 1000, 522

    def __init__(self, work_dir: Path):
        self.work_dir = work_dir

    def setup(self, seed: int, small: bool = False):
        n_models, n_model, model_frame = (3, 120, 160) if small else (self.MODELS, 300, 256)
        n_miss, miss_frame = (400, 320) if small else (self.MISS_EDGES, self.MISS_FRAME)
        pool = 2 * self.CYCLE if small else self.POOL
        self.work_dir.mkdir(parents=True, exist_ok=True)
        root = Path(tempfile.mkdtemp(prefix="gallery-", dir=self.work_dir))
        models = [em.random_edge_set(n_model, model_frame, model_frame,
                                     seed=_sub_seed(seed, 6, i)) for i in range(n_models)]
        gallery = em.load_gallery(root)
        for i, m in enumerate(models):
            gallery = em.enroll(gallery, f"model-{i}", m, timestamp="2000-01-01T00:00:00+00:00")
        probes = []
        for k in range(pool // self.CYCLE):
            i = k % n_models
            truth, w, h = full_overlap_truth(_rng(seed, 7, k), model_frame, 8.0)
            spec = em.CorruptionSpec(**CORRUPTION, seed=_sub_seed(seed, 8, k))
            hit = em.corrupt_and_transform(models[i], truth, spec, w, h)
            probes.append(Probe(hit, f"model-{i}", truth))
            for j in range(self.CYCLE - 1):
                miss = em.random_edge_set(n_miss, miss_frame, miss_frame,
                                          seed=_sub_seed(seed, 9, k, j))
                probes.append(Probe(miss, None, None))
        return SearchState(root=root, ids=gallery.ids(), probes=probes)

    def teardown(self, state: SearchState) -> None:
        shutil.rmtree(state.root, ignore_errors=True)

    def digest(self, state: SearchState) -> str:
        files = sorted((state.root / em.gallery.MODELS_DIR).iterdir())
        return _sha(*(f.read_bytes() for f in files),
                    *(em.serialize(p.edges) + repr(p.truth).encode() for p in state.probes))

    def prepare(self, state: SearchState, k: int):
        return state.root, fresh(state.probes[k % len(state.probes)].edges)

    @staticmethod
    def op(root: Path, probe: em.EdgeSet):
        return em.search(em.load_gallery(root), probe)

    def check(self, state: SearchState, k: int, out) -> Outcome:
        probe = state.probes[k % len(state.probes)]
        accept = em.VerifyConfig().accept_score
        sound = (sorted(i for i, _ in out) == sorted(state.ids)
                 and out == sorted(out, key=lambda r: (-r[1].score, r[0]))
                 and all(match_sound(r, accept) for _, r in out))
        decided = [i for i, r in out if r.decided]
        err = None
        if probe.model is None:
            ok = not decided
        else:
            top_id, top = out[0]
            ok = top_id == probe.model and decided == [probe.model]
            if top.decided and top_id == probe.model:
                err = corner_error_px(top.transform, probe.truth,
                                      probe.edges.width, probe.edges.height)
        doc = json.dumps([[i, r.to_json_dict()] for i, r in out], sort_keys=True).encode()
        return Outcome(ok=sound and ok, sound=sound, err_px=err, digest=_sha(doc))


# --------------------------------------------------------------------------
# mc: one monte_carlo_miss call per op over the (p, m) lattice


@dataclass
class McPoint:
    p: float
    m: int
    seed: int
    trials: int
    reference: tuple | None = None


class MonteCarlo:
    LATTICE = [(0.1, 5), (0.1, 20), (0.25, 5), (0.25, 20)]
    # Lattice points of one cycle.  The m = 20 points, about three times
    # slower, take four of six slots, so the median and the tail percentile
    # fall inside them, never on the gap between m = 5 and m = 20.
    ORDER = (0, 1, 1, 2, 3, 3)
    CYCLE = len(ORDER)
    TRIALS = 1_000_000

    def __init__(self, workers: int):
        self.workers = workers

    def setup(self, seed: int, small: bool = False):
        trials = 20_000 if small else self.TRIALS
        return [McPoint(p, m, _sub_seed(seed, 10, i), trials)
                for i, (p, m) in enumerate(self.LATTICE)]

    def reference(self, points) -> None:
        """The same lattice at workers=1; every op must reproduce it exactly."""
        for pt in points:
            pt.reference = em.monte_carlo_miss(em.ProbabilityParams(pt.p, pt.m), pt.trials,
                                               seed=pt.seed, workers=1)

    def digest(self, points) -> str:
        return _sha(repr([(pt.p, pt.m, pt.seed, pt.trials) for pt in points]).encode())

    def prepare(self, points, k: int):
        pt = points[self.ORDER[k % self.CYCLE]]
        return em.ProbabilityParams(pt.p, pt.m), pt.trials, pt.seed, self.workers

    @staticmethod
    def op(params: em.ProbabilityParams, trials: int, seed: int, workers: int):
        return em.monte_carlo_miss(params, trials, seed=seed, workers=workers)

    def check(self, points, k: int, out) -> Outcome:
        pt = points[self.ORDER[k % self.CYCLE]]
        exact = em.miss_probability_general(pt.p, pt.m)
        se = math.sqrt(exact * (1.0 - exact) / pt.trials)
        sound = out == pt.reference
        return Outcome(ok=sound and abs(out[0] - exact) <= 4.0 * se, sound=sound,
                       digest=_sha(repr(out).encode()))


def nproc() -> int:
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()


def make(name: str, work_dir: Path):
    if name == "extract":
        return Extract()
    if name == "register":
        return Register()
    if name == "search":
        return Search(work_dir)
    if name == "mc":
        return MonteCarlo(nproc())
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("extract", "register", "search", "mc")
HARD_KINDS = ("crop", "scene", "corrupt")
