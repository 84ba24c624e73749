"""A-posteriori verification of transform hypotheses.

A hypothesis survives two gates.  Sequential probing walks the most
confident reference edges, checks for a probe-side correspondent of each
under the inverse transform, and multiplies the branch confidence by a miss
factor on every failure, so poor hypotheses die after a handful of probes.
Full coincidence counting then greedily matches every probe edge against
the reference set one-to-one, yielding the symmetric score
2 m / (|ref| + |probe visible|).

The top-level `match` drives both gates over ranked basis hypotheses and
refines the best surviving transform with a least-squares fit over its
matched pairs: a basis couple pins the transform from just two edges and
inherits their jitter, while the refit averages it over every coincidence.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field
from itertools import islice

import numpy as np

from .basis import (
    CompatibleCouples,
    HypothesisConfig,
    Transform,
    compatible_pairs,
    iter_basis_pairs,
)
from .edges import EdgeSet, in_frame, query_near_batch, require_int, require_positive


@dataclass(frozen=True)
class VerifyConfig:
    """Verification tolerances and budgets.

    eps_pos is measured in reference-frame pixels.
    """

    eps_pos: float = 3.0
    eps_theta: float = 0.2
    probe_count: int = 20
    miss_factor: float = 0.8
    prune_threshold: float = 0.3
    accept_score: float = 0.4
    max_branches: int = 50

    def __post_init__(self):
        require_positive("eps_pos", self.eps_pos)
        require_positive("eps_theta", self.eps_theta)
        require_int("probe_count", self.probe_count, 1)
        if not (0.0 < self.miss_factor < 1.0):
            raise ValueError("miss_factor must lie in (0, 1)")
        if not (0.0 <= self.prune_threshold < 1.0):
            raise ValueError("prune_threshold must lie in [0, 1)")
        if not (0.0 < self.accept_score <= 1.0):
            raise ValueError("accept_score must lie in (0, 1]")
        require_int("max_branches", self.max_branches, 1)


@dataclass
class MatchResult:
    """Outcome of matching a probe edge set against a reference edge set.

    counts is (matched, reference total, probe edges visible in the
    reference frame); score = 2 * matched / (counts[1] + counts[2]) under
    the reported transform.  basis records the accepted reference and probe
    couples when a surviving branch exists.
    """

    decided: bool
    score: float
    transform: Transform | None
    matched_pairs: list[tuple[int, int]] = field(default_factory=list)
    counts: tuple[int, int, int] = (0, 0, 0)
    branches_tried: int = 0
    confidence: float = 0.0
    basis: tuple[tuple[int, int], tuple[int, int]] | None = None

    def to_json_dict(self) -> dict:
        return {
            "version": 1,
            "decided": self.decided,
            "score": self.score,
            "transform": asdict(self.transform) if self.transform is not None else None,
            "matched_pairs": [[a, n] for a, n in self.matched_pairs],
            "counts": list(self.counts),
            "branches_tried": self.branches_tried,
            "confidence": self.confidence,
            "basis": (
                {"ref": list(self.basis[0]), "probe": list(self.basis[1])}
                if self.basis is not None
                else None
            ),
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "MatchResult":
        """Inverse of :meth:`to_json_dict`.

        Raises ValueError when the version is not 1 or a field is missing or
        of the wrong type.
        """
        if not isinstance(d, dict):
            raise ValueError("match result must be a JSON object")
        if d.get("version") != 1:
            raise ValueError(f"unsupported match result version {d.get('version')!r}")
        t = _field(d, "transform", (dict, type(None)))
        b = _field(d, "basis", (dict, type(None)))
        pairs = _field(d, "matched_pairs", (list,))
        return cls(
            decided=_field(d, "decided", (bool,)),
            score=float(_field(d, "score", _NUMBER)),
            transform=(Transform(*(_field(t, k, _NUMBER) for k in ("s", "tx", "ty")))
                       if t is not None else None),
            matched_pairs=[_indices(p, 2, "matched_pairs") for p in pairs],
            counts=_indices(_field(d, "counts", (list,)), 3, "counts"),
            branches_tried=_field(d, "branches_tried", (int,)),
            confidence=float(_field(d, "confidence", _NUMBER)),
            basis=(tuple(_indices(b.get(k), 2, "basis") for k in ("ref", "probe"))
                   if b is not None else None),
        )


_NUMBER = (int, float)


def _field(d: dict, name: str, kinds: tuple):
    if name not in d:
        raise ValueError(f"match result lacks field {name!r}")
    v = d[name]
    # JSON true and false load as bool, a subclass of int.
    if not isinstance(v, kinds) or (isinstance(v, bool) and bool not in kinds):
        raise ValueError(f"match result field {name!r} has the wrong type: {v!r}")
    return v


def _indices(v, n: int, name: str) -> tuple[int, ...]:
    if not (isinstance(v, list) and len(v) == n
            and all(isinstance(i, int) and not isinstance(i, bool) for i in v)):
        raise ValueError(f"match result field {name!r} needs lists of {n} integers, got {v!r}")
    return tuple(v)


def count_coincidences(
    ref: EdgeSet,
    probe: EdgeSet,
    transform: Transform,
    cfg: VerifyConfig | None = None,
) -> tuple[list[tuple[int, int]], float]:
    """Greedy one-to-one coincidence match of the mapped probe against the
    reference set.

    Probe edges mapped outside the reference frame are invisible: they are
    excluded from matching and from the score denominator.  Visible probe
    edges are processed in descending confidence (ties by lower index); each
    claims its nearest reference edge within eps_pos and eps_theta that is
    still unclaimed (distance ties by lower reference index).  Returns the
    matched (ref_index, probe_index) pairs and 2m / (|ref| + |visible|),
    defined as 0 when both counts are zero.
    """
    if cfg is None:
        cfg = VerifyConfig()
    arr_n = probe.arrays()
    arr_a = ref.arrays()
    mx, my = transform.apply(arr_n.x, arr_n.y)
    visible = in_frame(mx, my, ref.width, ref.height)
    n_visible = int(visible.sum())
    denominator = len(ref) + n_visible
    if denominator == 0:
        return [], 0.0
    order = probe.ranked[visible[probe.ranked]]
    # Query k is the probe edge of rank k; its candidates are tried nearest
    # first, ties by lower reference index.
    qx, qy = mx[order], my[order]
    rank, cand = query_near_batch(ref, qx, qy, cfg.eps_pos, arr_n.theta[order], cfg.eps_theta)
    dx = arr_a.x[cand] - qx[rank]
    dy = arr_a.y[cand] - qy[rank]
    by = np.lexsort((cand, dx * dx + dy * dy, rank))
    claimed: set[int] = set()
    pairs: list[tuple[int, int]] = []
    last = -1
    for k, a in zip(rank[by].tolist(), cand[by].tolist()):
        if k != last and a not in claimed:
            claimed.add(a)
            pairs.append((a, int(order[k])))
            last = k
    score = 2.0 * len(pairs) / denominator
    return pairs, score


def screen_branches(
    ref: EdgeSet,
    probe: EdgeSet,
    s,
    tx,
    ty,
    initial_confidence,
    cfg: VerifyConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cheap sequential screen of the hypotheses s * p + (tx, ty): one
    float64 confidence and one bool pruned flag per hypothesis.

    initial_confidence is one value for every hypothesis or one value per
    hypothesis.  Each hypothesis visits the probe_count most confident
    reference edges (ties by lower index), looks for a probe edge within
    eps_pos / s of the inverse-mapped position with a compatible
    orientation, and multiplies the confidence by miss_factor on each
    failure.  Hits leave it unchanged.  A branch is pruned at the first
    probe that leaves it below prune_threshold, and reports the confidence
    of that probe; a branch that starts below it is pruned before any
    probe.  One batched query serves every hypothesis.
    """
    if cfg is None:
        cfg = VerifyConfig()
    s, tx, ty = (np.asarray(v, dtype=np.float64).reshape(-1, 1) for v in (s, tx, ty))
    arr_a = ref.arrays()
    order = ref.ranked[: cfg.probe_count]
    # Row b holds the reference edges inverted through hypothesis b, with
    # the bits of Transform.invert.
    px = (arr_a.x[order] - tx) / s
    py = (arr_a.y[order] - ty) / s
    radius = np.repeat(cfg.eps_pos / s, order.size)
    theta = np.tile(arr_a.theta[order], len(s))
    q, _ = query_near_batch(probe, px, py, radius, theta, cfg.eps_theta)
    hits = np.bincount(q, minlength=px.size).reshape(px.shape)
    # Column k of the walk is the confidence after k probes: the product,
    # left to right, of the initial value and a factor per probe, 1.0 on a
    # hit, so every step has the bits of a scalar walk.
    steps = np.empty((len(s), order.size + 1))
    steps[:, 0] = initial_confidence
    steps[:, 1:] = np.where(hits == 0, cfg.miss_factor, 1.0)
    walk = np.cumprod(steps, axis=1)
    # NaN is not below the threshold, so a NaN confidence is never pruned.
    below = walk < cfg.prune_threshold
    pruned = below.any(axis=1)
    stop = np.where(pruned, below.argmax(axis=1), order.size)
    return walk[np.arange(len(s)), stop], pruned


def sequential_verify(
    ref: EdgeSet,
    probe: EdgeSet,
    transform: Transform,
    initial_confidence: float,
    cfg: VerifyConfig | None = None,
) -> tuple[float, bool]:
    """:func:`screen_branches` of one hypothesis: its final confidence and
    whether it fell below prune_threshold."""
    confidence, pruned = screen_branches(ref, probe, transform.s, transform.tx, transform.ty,
                                         initial_confidence, cfg)
    return float(confidence[0]), bool(pruned[0])


def _refit_transform(
    ref: EdgeSet,
    probe: EdgeSet,
    pairs: list[tuple[int, int]],
    s_min: float,
    s_max: float,
) -> Transform | None:
    """Least-squares scale+translation over matched pairs.

    Minimizes sum |s * p_probe + t - p_ref|^2.  Returns None when the system
    is degenerate (fewer than two pairs, or no positional spread) or the
    fitted scale leaves [s_min, s_max].
    """
    if len(pairs) < 2:
        return None
    arr_a = ref.arrays()
    arr_n = probe.arrays()
    ai = np.array([a for a, _ in pairs], dtype=np.int64)
    ni = np.array([n for _, n in pairs], dtype=np.int64)
    px = arr_n.x[ni]
    py = arr_n.y[ni]
    qx = arr_a.x[ai]
    qy = arr_a.y[ai]
    pxm, pym = px.mean(), py.mean()
    qxm, qym = qx.mean(), qy.mean()
    dpx, dpy = px - pxm, py - pym
    dqx, dqy = qx - qxm, qy - qym
    denom = float((dpx * dpx + dpy * dpy).sum())
    if denom <= 0.0:
        return None
    s = float((dpx * dqx + dpy * dqy).sum()) / denom
    if not (s_min <= s <= s_max):
        return None
    return Transform(s=s, tx=float(qxm - s * pxm), ty=float(qym - s * pym))


def _best_branch(ref, probe, hyp_cfg, ver_cfg):
    """The branch walk of :func:`match`: (branches tried, best branch or
    None)."""
    branches = 0
    best = None
    if len(probe) < 2:  # no probe couple
        return branches, best
    bases = iter_basis_pairs(ref, hyp_cfg)
    group = 1
    while taken := list(islice(bases, group)):
        c = compatible_pairs(probe, taken, ref, hyp_cfg)
        c = CompatibleCouples(*(v[: ver_cfg.max_branches - branches] for v in c))
        quality = np.array([bp.quality for bp in taken])
        screens = screen_branches(ref, probe, c.s, c.tx, c.ty, quality[c.basis], ver_cfg)
        for k, n1, n2, s, tx, ty, confidence, pruned in zip(
                *(v.tolist() for v in (*c, *screens))):
            branches += 1
            if pruned:
                continue
            t_raw = Transform(s=s, tx=tx, ty=ty)
            pairs, score = count_coincidences(ref, probe, t_raw, ver_cfg)
            t_best, pairs_best, score_best = t_raw, pairs, score
            t_ref = _refit_transform(ref, probe, pairs, hyp_cfg.s_min, hyp_cfg.s_max)
            if t_ref is not None:
                pairs_r, score_r = count_coincidences(ref, probe, t_ref, ver_cfg)
                if score_r >= score:
                    t_best, pairs_best, score_best = t_ref, pairs_r, score_r
            if best is None or score_best > best[0]:
                best = (score_best, t_best, pairs_best, confidence, taken[k], (n1, n2))
            if score_best >= ver_cfg.accept_score:
                return branches, best
        if branches == ver_cfg.max_branches:
            break
        # Each basis gives at most max_pairs_n couples, so every basis of
        # the next group is read within the budget.
        group = -(-(ver_cfg.max_branches - branches) // hyp_cfg.max_pairs_n)
    return branches, best


def match(
    ref: EdgeSet,
    probe: EdgeSet,
    hyp_cfg: HypothesisConfig | None = None,
    ver_cfg: VerifyConfig | None = None,
) -> MatchResult:
    """Search for the transform registering the probe onto the reference.

    Walks reference basis couples in quality order; each compatible probe
    couple opens a branch with initial confidence equal to the basis quality.
    Bases are read in groups, the first of one basis and each later one of
    as many as the branches left could need, and the couples of one group
    are found by compatible_pairs and screened together.  Each surviving
    branch, in couple order, is counted by count_coincidences, refined once
    by least squares (keeping whichever of the raw and refined transforms
    counts better), and the search stops at max_branches or as soon as a
    branch reaches accept_score.  The best surviving branch is reported;
    with no surviving branch the result is an undecided reject with no
    transform.  Deterministic for fixed inputs.
    """
    if hyp_cfg is None:
        hyp_cfg = HypothesisConfig()
    if ver_cfg is None:
        ver_cfg = VerifyConfig()
    branches, best = _best_branch(ref, probe, hyp_cfg, ver_cfg)
    if best is None:
        return MatchResult(decided=False, score=0.0, transform=None,
                           counts=(0, len(ref), 0), branches_tried=branches)
    score, transform, pairs, confidence, bp, n_pair = best
    arr_n = probe.arrays()
    mx, my = transform.apply(arr_n.x, arr_n.y)
    n_visible = int(in_frame(mx, my, ref.width, ref.height).sum())
    return MatchResult(
        decided=score >= ver_cfg.accept_score,
        score=score,
        transform=transform,
        matched_pairs=pairs,
        counts=(len(pairs), len(ref), n_visible),
        branches_tried=branches,
        confidence=confidence,
        basis=((bp.i, bp.j), n_pair),
    )
