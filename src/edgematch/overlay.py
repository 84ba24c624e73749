"""SVG rendering of a match: both edge sets in one frame."""

from __future__ import annotations

import math

from .basis import Transform
from .edges import EdgeSet
from .verify import MatchResult

_STYLE = """\
    .frame { fill: none; stroke: #888888; stroke-width: 0.5; }
    .ref { stroke: #1f77b4; stroke-width: 0.8; }
    .probe { stroke: #d62728; stroke-width: 0.8; }
    .matched { stroke: #2ca02c; stroke-width: 0.6; }
    .basis { stroke: #ff7f0e; stroke-width: 2.0; fill: none; }
"""

_SEG_HALF = 3.0


def _fmt(v: float) -> str:
    return f"{v:.2f}"


def _segment(x: float, y: float, theta: float, cls: str | None = None) -> str:
    cx = _SEG_HALF * math.cos(theta)
    cy = _SEG_HALF * math.sin(theta)
    attr = f' class="{cls}"' if cls else ""
    return (
        f'<line{attr} x1="{_fmt(x - cx)}" y1="{_fmt(y - cy)}" '
        f'x2="{_fmt(x + cx)}" y2="{_fmt(y + cy)}" />'
    )


def render_overlay(ref: EdgeSet, probe: EdgeSet, result: MatchResult) -> str:
    """Reference edges, transformed probe edges, matched-pair connectors,
    and the accepted basis couple as distinct stroke classes.

    Probe edges are mapped by the result transform (identity when the match
    carries none).  Six-pixel segments along each orientation; coordinates
    are in the reference frame.  Raises ValueError when a matched pair or
    the basis names an edge index outside either set.
    """
    index_pairs = list(result.matched_pairs)
    if result.basis is not None:
        index_pairs += zip(*result.basis)
    for a, n in index_pairs:
        if not (0 <= a < len(ref) and 0 <= n < len(probe)):
            raise ValueError(f"match result index pair ({a}, {n}) outside the "
                             f"{len(ref)} reference and {len(probe)} probe edges")
    t = result.transform if result.transform is not None else Transform(1.0, 0.0, 0.0)
    w, h = ref.width, ref.height
    lines = [
        f'<svg xmlns="http://www.w3.org/2000/svg" viewBox="-1 -1 {w + 2} {h + 2}" '
        f'width="{w + 2}" height="{h + 2}">',
        f"<style>\n{_STYLE}</style>",
        f'<rect class="frame" x="0" y="0" width="{w}" height="{h}" />',
    ]
    ra, pa = ref.arrays(), probe.arrays()
    ref_x, ref_y, ref_theta = ra.x.tolist(), ra.y.tolist(), ra.theta.tolist()
    probe_theta = pa.theta.tolist()
    mapped = list(zip(*(v.tolist() for v in t.apply(pa.x, pa.y))))
    lines.append('<g class="ref">')
    for x, y, theta in zip(ref_x, ref_y, ref_theta):
        lines.append(_segment(x, y, theta))
    lines.append("</g>")
    lines.append('<g class="probe">')
    for (mx, my), theta in zip(mapped, probe_theta):
        lines.append(_segment(mx, my, theta))
    lines.append("</g>")
    lines.append('<g class="matched">')
    for a, n in result.matched_pairs:
        mx, my = mapped[n]
        lines.append(
            f'<line x1="{_fmt(ref_x[a])}" y1="{_fmt(ref_y[a])}" '
            f'x2="{_fmt(mx)}" y2="{_fmt(my)}" />'
        )
    lines.append("</g>")
    if result.basis is not None:
        (ai, aj), (ni, nj) = result.basis
        lines.append('<g class="basis">')
        for a in (ai, aj):
            lines.append(_segment(ref_x[a], ref_y[a], ref_theta[a]))
        for n in (ni, nj):
            mx, my = mapped[n]
            lines.append(_segment(mx, my, probe_theta[n]))
        lines.append("</g>")
    lines.append("</svg>")
    return "\n".join(lines) + "\n"
