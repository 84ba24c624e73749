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
`match_each` does the same for one probe against many references, with
their walks in lock-step, so that each round finds the couples of all of
them in one call and screens them all in another.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, field

import numpy as np

from .basis import (
    CompatibleCouples,
    HypothesisConfig,
    Transform,
    compatible_pairs,
    iter_basis_pairs,
)
from .edges import (
    EdgeSet,
    _segment_ranges,
    in_frame,
    query_near_batch,
    require_int,
    require_positive,
)


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
    matched (ref_index, probe_index) pairs in processing order and
    2m / (|ref| + |visible|), defined as 0 when both counts are zero.

    A probe edge whose nearest candidate no other probe edge lists claims
    it whatever the order, so all of those are resolved in one array pass;
    only the probe edges whose nearest candidate is shared are walked in
    order.  The result is that of walking every probe edge.
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
    # Query k is the probe edge of rank k.  Its hits come sorted by reference
    # index; a query of several candidates tries them nearest first, ties by
    # lower reference index.
    qx, qy = mx[order], my[order]
    rank, cand = query_near_batch(ref, qx, qy, cfg.eps_pos, arr_n.theta[order], cfg.eps_theta)
    hits = np.bincount(rank, minlength=order.size)
    multi = np.flatnonzero(hits[rank] >= 2)
    mk, ma = rank[multi], cand[multi]
    dx = arr_a.x[ma] - qx[mk]
    dy = arr_a.y[ma] - qy[mk]
    cand[multi] = ma[np.lexsort((ma, dx * dx + dy * dy, mk))]
    # A query whose first candidate no other query lists claims it, since no
    # earlier query can have.  Those references are in no other list, so the
    # remaining queries, walked in rank order, see the claims they would see
    # in a walk of every query.
    some = hits > 0
    first = cand[(np.cumsum(hits) - hits)[some]]
    easy = np.bincount(cand, minlength=len(ref))[first] == 1
    claim = np.full(order.size, -1)
    claim[some] = np.where(easy, first, -1)
    walked = np.flatnonzero(claim[rank] < 0)
    claimed: set[int] = set()
    last = -1
    for k, a in zip(rank[walked].tolist(), cand[walked].tolist()):
        if k != last and a not in claimed:
            claimed.add(a)
            claim[k] = a
            last = k
    got = np.flatnonzero(claim >= 0)
    pairs = list(zip(claim[got].tolist(), order[got].tolist()))
    score = 2.0 * len(pairs) / denominator
    return pairs, score


def screen_branches(
    refs: list[EdgeSet],
    owner,
    probe: EdgeSet,
    s,
    tx,
    ty,
    initial_confidence,
    cfg: VerifyConfig | None = None,
) -> tuple[np.ndarray, np.ndarray]:
    """Cheap sequential screen of the hypotheses s * p + (tx, ty): one
    float64 confidence and one bool pruned flag per hypothesis.

    Hypothesis b maps the probe into the frame of refs[owner[b]].
    initial_confidence is one value for every hypothesis or one value per
    hypothesis.  Each hypothesis visits the probe_count most confident
    edges of its reference (ties by lower index), looks for a probe edge
    within eps_pos / s of the inverse-mapped position with a compatible
    orientation, and multiplies the confidence by miss_factor on each
    failure.  Hits leave it unchanged, and a reference of fewer edges
    counts its missing probes as hits.  A branch is pruned at the first
    probe that leaves it below prune_threshold, and reports the confidence
    of that probe; a branch that starts below it is pruned before any
    probe.  One batched query serves every hypothesis.
    """
    if cfg is None:
        cfg = VerifyConfig()
    s, tx, ty = (np.asarray(v, dtype=np.float64).reshape(-1, 1) for v in (s, tx, ty))
    owner = np.asarray(owner, dtype=np.int64).reshape(-1)
    orders = [r.ranked[: cfg.probe_count] for r in refs]
    sizes = np.array([o.size for o in orders], dtype=np.int64)
    width = int(sizes.max(initial=0))
    # Row r holds the top edges of refs[r], padded to the widest.
    cols = np.zeros((3, len(refs), width))
    for r, (ref, order) in enumerate(zip(refs, orders)):
        arr = ref.arrays()
        cols[:, r, : order.size] = arr.x[order], arr.y[order], arr.theta[order]
    valid = np.arange(width) < sizes[:, None]
    ax, ay, atheta = cols[:, owner]
    # Row b holds the reference edges inverted through hypothesis b, with
    # the bits of Transform.invert.  Padding cells are queried too, and
    # their outcome ignored.
    px = (ax - tx) / s
    py = (ay - ty) / s
    radius = np.repeat(cfg.eps_pos / s, width)
    q, _ = query_near_batch(probe, px, py, radius, atheta.ravel(), cfg.eps_theta)
    miss = (np.bincount(q, minlength=px.size).reshape(px.shape) == 0) & valid[owner]
    # Column k of the walk is the confidence after k probes: the product,
    # left to right, of the initial value and a factor per probe, 1.0 on a
    # hit or a padding cell, so every step has the bits of a scalar walk.
    steps = np.empty((len(s), width + 1))
    steps[:, 0] = initial_confidence
    steps[:, 1:] = np.where(miss, cfg.miss_factor, 1.0)
    walk = np.cumprod(steps, axis=1)
    # NaN is not below the threshold, so a NaN confidence is never pruned.
    below = walk < cfg.prune_threshold
    pruned = below.any(axis=1)
    stop = np.where(pruned, below.argmax(axis=1), width)
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
    confidence, pruned = screen_branches([ref], [0], probe, transform.s, transform.tx,
                                         transform.ty, initial_confidence, cfg)
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


def _count_branch(ref, probe, t_raw, hyp_cfg, ver_cfg):
    """(score, transform, pairs) of a surviving branch: the count under
    t_raw, or under its least-squares refit when that counts at least as
    well."""
    pairs, score = count_coincidences(ref, probe, t_raw, ver_cfg)
    t_ref = _refit_transform(ref, probe, pairs, hyp_cfg.s_min, hyp_cfg.s_max)
    if t_ref is not None:
        pairs_r, score_r = count_coincidences(ref, probe, t_ref, ver_cfg)
        if score_r >= score:
            return score_r, t_ref, pairs_r
    return score, t_raw, pairs


class _Walk:
    """The basis walk of one reference in :func:`match_each`."""

    def __init__(self, ref: EdgeSet, hyp_cfg: HypothesisConfig):
        self.ref = ref
        self.bases = iter_basis_pairs(ref, hyp_cfg)
        self.group = 1  # bases to read next round
        self.taken: list = []  # bases read this round
        self.branches = 0
        self.best = None  # (score, transform, pairs, confidence, basis, probe couple)
        self.accepted = False


def _walk_in_lockstep(walks: list[_Walk], probe, hyp_cfg, ver_cfg) -> None:
    """Run every walk to its end, all in rounds.

    A round reads each live walk's next group of bases, finds the couples of
    them all with one compatible_pairs call, cuts each walk's couples at its
    remaining budget, screens them all with one screen_branches call, and
    then walks each one's survivors in couple order.
    """
    budget = ver_cfg.max_branches
    live = walks
    while live:
        for w in live:
            # islice refuses a stop past sys.maxsize; zip ends with the range,
            # before it pulls a basis.
            w.taken = [b for _, b in zip(range(w.group), w.bases)]
        live = [w for w in live if w.taken]
        if not live:
            return
        bases = [b for w in live for b in w.taken]
        c = compatible_pairs(probe, bases, [w.ref for w in live for _ in w.taken], hyp_cfg)
        # Each walk's couples are contiguous: keep the first budget - branches,
        # capped in Python ints so that a budget beyond int64 cuts nothing.
        first = np.cumsum([0] + [len(w.taken) for w in live])
        lo = np.searchsorted(c.basis, first[:-1])
        hi = np.minimum(np.searchsorted(c.basis, first[1:]),
                        lo + [min(budget - w.branches, len(c.basis)) for w in live])
        keep = _segment_ranges(lo, hi - lo)
        c = CompatibleCouples(*(v[keep] for v in c))
        owner = np.arange(len(live)).repeat(hi - lo)
        quality = np.array([b.quality for b in bases])
        screens = screen_branches([w.ref for w in live], owner, probe, c.s, c.tx, c.ty,
                                  quality[c.basis], ver_cfg)
        for o, k, n1, n2, s, tx, ty, confidence, pruned in zip(
                *(v.tolist() for v in (owner, *c, *screens))):
            w = live[o]
            if w.accepted:
                continue
            w.branches += 1
            if pruned:
                continue
            score, t, pairs = _count_branch(w.ref, probe, Transform(s=s, tx=tx, ty=ty),
                                            hyp_cfg, ver_cfg)
            if w.best is None or score > w.best[0]:
                w.best = (score, t, pairs, confidence, bases[k], (n1, n2))
            w.accepted = score >= ver_cfg.accept_score
        live = [w for w in live if not w.accepted and w.branches < budget]
        for w in live:
            # Each basis gives at most max_pairs_n couples, so every basis of
            # the next group is read within the budget.
            w.group = -(-(budget - w.branches) // hyp_cfg.max_pairs_n)


def _result(w: _Walk, probe: EdgeSet, ver_cfg: VerifyConfig) -> MatchResult:
    ref = w.ref
    if w.best is None:
        return MatchResult(decided=False, score=0.0, transform=None,
                           counts=(0, len(ref), 0), branches_tried=w.branches)
    score, transform, pairs, confidence, bp, n_pair = w.best
    arr_n = probe.arrays()
    mx, my = transform.apply(arr_n.x, arr_n.y)
    n_visible = int(in_frame(mx, my, ref.width, ref.height).sum())
    return MatchResult(
        decided=score >= ver_cfg.accept_score,
        score=score,
        transform=transform,
        matched_pairs=pairs,
        counts=(len(pairs), len(ref), n_visible),
        branches_tried=w.branches,
        confidence=confidence,
        basis=((bp.i, bp.j), n_pair),
    )


def match_each(
    refs: list[EdgeSet],
    probe: EdgeSet,
    hyp_cfg: HypothesisConfig | None = None,
    ver_cfg: VerifyConfig | None = None,
) -> list[MatchResult]:
    """:func:`match` of the probe against each reference set, in order.

    Every result equals that of a match on its own.  The walks run in
    lock-step rounds, so that the couples of every reference's next group
    of bases are found in one compatible_pairs call and screened in one
    screen_branches call; a walk that accepts or spends its budget drops
    out, and the others go on.
    """
    if hyp_cfg is None:
        hyp_cfg = HypothesisConfig()
    if ver_cfg is None:
        ver_cfg = VerifyConfig()
    walks = [_Walk(ref, hyp_cfg) for ref in refs]
    if len(probe) >= 2:  # else there is no probe couple
        _walk_in_lockstep(walks, probe, hyp_cfg, ver_cfg)
    return [_result(w, probe, ver_cfg) for w in walks]


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
    transform.  Deterministic for fixed inputs.  The one-reference case of
    :func:`match_each`.
    """
    return match_each([ref], probe, hyp_cfg, ver_cfg)[0]
