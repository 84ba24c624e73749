#!/usr/bin/env python3
"""The hard-pair failure table: true pairs `match` does not register, and
unrelated pairs it accepts, over a range of seeds.

Per seed, the hard pairs are the benchmark's hard `register` pairs, rebuilt
with `synth` and `spectral` alone under dropout 0.1, 0.5 px and 0.05 rad
jitter and clutter 0.1: five partial-overlap crops at s = 1 shifted by
30-50% of the frame (one per reference: random sets of 500, 1000 and 2000
edges and two extracted scenes), four full-overlap pairs of the extracted
scenes and twenty full-overlap pairs of the random sets.  A true pair fails
unless `match` accepts it within 2% scale and 2 px shift.

The unrelated pairs of seed S are every reference of S against every 4th
probe of seed S + 1 (40 pairs).  They are matched with pruning off
(`prune_threshold` 0), so that each reports the score of its best branch;
the table gives how many were accepted and the highest score.

    python scripts/failure_table.py --seeds 41-50 [--config cfg.json]

prints one row of the table; `--config` takes the JSON file of the CLI's
`--config`, and its extract section applies to the scenes.
"""

import argparse
import dataclasses
import math
import sys
import time
from types import SimpleNamespace

import numpy as np

from edgematch import (
    CorruptionSpec,
    Disk,
    Rect,
    Transform,
    VerifyConfig,
    corrupt_and_transform,
    extract_edges,
    match,
    random_edge_set,
    render_shapes,
)
from edgematch.cli import _configs

HARD_CORRUPTION = dict(dropout=0.1, jitter_pos=0.5, jitter_theta=0.05, clutter_frac=0.1)
KINDS = ("crop", "scene", "corrupt")


def _rng(seed, *tags):
    return np.random.default_rng([seed, *tags])


def _sub_seed(seed, *tags):
    return int(_rng(seed, *tags).integers(0, 2**31 - 1))


def _random_scene(rng, count, outline, frame, margin=12.0, gap=16.0):
    """`count` disks and rectangles, the first a disk, `gap` pixels apart and
    `margin` from the border, whose outlines sum to `outline` pixels."""
    for _ in range(1000):
        disk = [True] + [bool(rng.random() < 0.5) for _ in range(count - 1)]
        sizes = [(float(rng.uniform(20.0, 60.0)),) if d else
                 tuple(float(v) for v in rng.uniform(30.0, 160.0, 2)) for d in disk]
        total = sum(2.0 * math.pi * sz[0] if d else 2.0 * sum(sz) for d, sz in zip(disk, sizes))
        sizes = [tuple(v * outline / total for v in sz) for sz in sizes]
        if min(min(sz) for sz in sizes) < 15.0:
            continue
        shapes, boxes = [], []
        for d, sz in zip(disk, sizes):
            w, h = (2.0 * sz[0], 2.0 * sz[0]) if d else sz
            if w > frame - 2 * margin or h > frame - 2 * margin:
                break
            for _ in range(50):
                x0 = float(rng.uniform(margin, frame - margin - w))
                y0 = float(rng.uniform(margin, frame - margin - h))
                if not any(x0 < b[2] + gap and b[0] < x0 + w + gap
                           and y0 < b[3] + gap and b[1] < y0 + h + gap for b in boxes):
                    break
            else:
                break
            boxes.append((x0, y0, x0 + w, y0 + h))
            level = float(rng.uniform(0.4, 1.0))
            shapes.append(Disk(cx=x0 + sz[0], cy=y0 + sz[0], r=sz[0], intensity=level)
                          if d else Rect(x0=x0, y0=y0, w=w, h=h, intensity=level))
        if len(shapes) == count:
            return shapes
    raise ValueError(f"cannot place {count} shapes with a {outline} px outline")


def _full_overlap_pair(ref, seed, tag):
    """A probe frame that shows the whole reference at s in [0.9, 1.15] and
    a shift of up to 20 px towards negative offsets."""
    rng = _rng(seed, 4, tag)
    truth = Transform(s=float(rng.uniform(0.9, 1.15)), tx=float(rng.uniform(-20.0, 0.0)),
                      ty=float(rng.uniform(-20.0, 0.0)))
    w = math.ceil((ref.width - truth.tx) / truth.s) + 1
    h = math.ceil((ref.height - truth.ty) / truth.s) + 1
    spec = CorruptionSpec(**HARD_CORRUPTION, seed=_sub_seed(seed, 5, tag))
    return ref, corrupt_and_transform(ref, truth, spec, w, h), truth


def hard_pairs(seed, extract_cfg=None):
    """{kind: {name: (ref, probe, truth)}} for one seed, as the benchmark's
    `register` workload builds them.  The crops hold each reference once,
    named "<seed> <reference>"."""
    frame = 512
    refs = {f"n{n}": random_edge_set(n, frame, frame, seed=_sub_seed(seed, 2, n))
            for n in (500, 1000, 2000)}
    for i in range(2):
        rng = _rng(seed, 3, i)
        shapes = _random_scene(rng, int(rng.integers(3, 9)), 1450.0, frame)
        refs[f"scene{i}"] = extract_edges(render_shapes(frame, frame, shapes, background=0.1),
                                          extract_cfg)
    out = {kind: {} for kind in KINDS}
    tag = 40  # the tags after the benchmark's 40 timed pairs
    for kind, ref in refs.items():
        tx = float(np.round(_rng(seed, 4, tag).uniform(0.3, 0.5) * frame))
        truth = Transform(s=1.0, tx=tx, ty=0.0)
        spec = CorruptionSpec(**HARD_CORRUPTION, seed=_sub_seed(seed, 5, tag))
        probe = corrupt_and_transform(ref, truth, spec, frame - int(tx), frame)
        out["crop"][f"{seed} {kind}"] = ref, probe, truth
        tag += 1
        if kind.startswith("scene"):
            for j in range(2):
                out["scene"][f"{seed} {kind}.{j}"] = _full_overlap_pair(ref, seed, tag)
                tag += 1
    for k in range(20):
        kind = ("n500", "n2000", "n1000", "n2000", "n2000")[k % 5]
        out["corrupt"][f"{seed} {k}"] = _full_overlap_pair(refs[kind], seed, tag)
        tag += 1
    return out


def unrelated_pairs(refs_from, probes_from):
    """[(name, ref, probe)]: every reference of one seed's hard pairs against
    every 4th probe of another seed's, in kind and name order."""
    probes = [(name, probe) for kind in KINDS
              for name, (_, probe, _) in probes_from[kind].items()][::4]
    return [(f"{ref_name} vs {probe_name}", ref, probe)
            for ref_name, (ref, _, _) in refs_from["crop"].items()
            for probe_name, probe in probes]


def registered(res, truth) -> bool:
    """`match` accepted the pair within 2% scale and 2 px shift of `truth`."""
    return (res.decided and abs(res.transform.s - truth.s) <= 0.02 * truth.s
            and math.hypot(res.transform.tx - truth.tx, res.transform.ty - truth.ty) <= 2.0)


def table_row(seeds, extract_cfg=None, hyp_cfg=None, ver_cfg=None) -> dict:
    """{"crop"/"scene"/"corrupt": (failed, tried), "unrelated": (accepted,
    tried, max score)} over `seeds`."""
    no_prune = dataclasses.replace(ver_cfg or VerifyConfig(), prune_threshold=0.0)
    built = {}

    def pairs_of(seed):
        if seed not in built:
            built[seed] = hard_pairs(seed, extract_cfg)
        return built[seed]

    row = {kind: [0, 0] for kind in KINDS}
    accepts, tried, top = 0, 0, 0.0
    for seed in seeds:
        for kind, pairs in pairs_of(seed).items():
            for ref, probe, truth in pairs.values():
                row[kind][0] += not registered(match(ref, probe, hyp_cfg, ver_cfg), truth)
                row[kind][1] += 1
        for _, ref, probe in unrelated_pairs(pairs_of(seed), pairs_of(seed + 1)):
            res = match(ref, probe, hyp_cfg, no_prune)
            accepts += res.decided
            tried += 1
            top = max(top, res.score)
        built.pop(seed)
    row = {kind: tuple(v) for kind, v in row.items()}
    row["unrelated"] = accepts, tried, top
    return row


def _seed_range(text: str) -> range:
    lo, _, hi = text.partition("-")
    return range(int(lo), int(hi or lo) + 1)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__,
                                 formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", type=_seed_range, default=_seed_range("41-50"),
                    help="seed range A-B, or one seed (default 41-50)")
    ap.add_argument("--config", help="JSON config file, as the CLI's --config")
    args = ap.parse_args(argv)
    extract_cfg, hyp_cfg, ver_cfg = _configs(
        SimpleNamespace(config=args.config, verbose=False, command="failure_table"))

    start = time.perf_counter()
    row = table_row(args.seeds, extract_cfg, hyp_cfg, ver_cfg)
    elapsed = time.perf_counter() - start
    accepts, tried, top = row["unrelated"]
    variant = args.config or "defaults"
    print("| variant | crops | scenes | corrupt | unrelated accepts (max score) |")
    print("|---|---|---|---|---|")
    print(f"| {variant} | " + " | ".join(f"{f}/{n}" for f, n in (row[k] for k in KINDS))
          + f" | {accepts}/{tried} ({top:.3f}) |")
    print(f"seeds {args.seeds.start}-{args.seeds.stop - 1}, {elapsed:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
