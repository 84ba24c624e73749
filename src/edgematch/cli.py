"""Command-line interface: extract, match, overlay, synth, mc, gallery."""

from __future__ import annotations

import argparse
import dataclasses
import json
import sys
from pathlib import Path

from . import edges as edges_mod
from .basis import HypothesisConfig, Transform
from .gallery import enroll, load_gallery, search
from .image_io import load_pgm
from .overlay import render_overlay
from .probability import ProbabilityParams, miss_probability_general, monte_carlo_miss
from .spectral import EdgeExtractionConfig, extract_edges
from .synth import CorruptionSpec, corrupt_and_transform, random_edge_set
from .verify import MatchResult, VerifyConfig, match


class ConfigError(ValueError):
    pass


_SECTIONS = ("extract", "hypothesis", "verify")


def _apply_section(cls, overrides: dict, section: str):
    valid = {f.name for f in dataclasses.fields(cls)}
    unknown = sorted(set(overrides) - valid)
    if unknown:
        raise ConfigError(f"unknown key(s) {unknown} in config section {section!r}")
    try:
        return cls(**overrides)
    except (TypeError, ValueError) as exc:
        raise ConfigError(f"invalid config section {section!r}: {exc}") from None


def _configs(args):
    """The extract, hypothesis and verify configs of --config, printed to
    stderr under --verbose."""
    doc = {}
    if args.config is not None:
        try:
            doc = json.loads(Path(args.config).read_text(encoding="utf-8"))
        except OSError as exc:
            raise ConfigError(f"cannot read config file: {exc}") from None
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file is not valid JSON: {exc}") from None
        if not isinstance(doc, dict):
            raise ConfigError("config file must contain a JSON object")
        unknown = sorted(set(doc) - set(_SECTIONS))
        if unknown:
            raise ConfigError(f"unknown config section(s) {unknown}")
    extract_cfg = _apply_section(EdgeExtractionConfig, doc.get("extract", {}), "extract")
    hyp_cfg = _apply_section(HypothesisConfig, doc.get("hypothesis", {}), "hypothesis")
    ver_cfg = _apply_section(VerifyConfig, doc.get("verify", {}), "verify")
    if args.verbose:
        effective = {
            "command": args.command,
            "extract": dataclasses.asdict(extract_cfg),
            "hypothesis": dataclasses.asdict(hyp_cfg),
            "verify": dataclasses.asdict(ver_cfg),
        }
        print(json.dumps(effective, indent=2), file=sys.stderr)
    return extract_cfg, hyp_cfg, ver_cfg


def _write_text(path: str, text: str) -> None:
    Path(path).write_text(text, encoding="utf-8")


def _read(path: str) -> bytes:
    try:
        return Path(path).read_bytes()
    except OSError as exc:
        raise ValueError(f"cannot read {path}: {exc}") from None


def _parse_edgeset_file(path: str):
    return edges_mod.parse(_read(path))


def cmd_extract(args) -> int:
    extract_cfg, _, _ = _configs(args)
    img = load_pgm(_read(args.image))
    es = extract_edges(img, extract_cfg)
    Path(args.out).write_bytes(edges_mod.serialize(es))
    print(f"extracted {len(es)} edges from {img.width}x{img.height} image -> {args.out}")
    return 0


def cmd_match(args) -> int:
    _, hyp_cfg, ver_cfg = _configs(args)
    ref = _parse_edgeset_file(args.ref)
    probe = _parse_edgeset_file(args.probe)
    result = match(ref, probe, hyp_cfg, ver_cfg)
    if args.out:
        _write_text(args.out, json.dumps(result.to_json_dict(), indent=2) + "\n")
    verdict = "accept" if result.decided else "reject"
    t = result.transform
    t_text = f"s={t.s:.6f} t=({t.tx:.3f}, {t.ty:.3f})" if t else "no transform"
    print(
        f"{verdict} score={result.score:.4f} {t_text} "
        f"matched={result.counts[0]}/{result.counts[1]}+{result.counts[2]} "
        f"branches={result.branches_tried}"
    )
    return 0 if result.decided else 1


def cmd_overlay(args) -> int:
    ref = _parse_edgeset_file(args.ref)
    probe = _parse_edgeset_file(args.probe)
    try:
        doc = json.loads(_read(args.result).decode("utf-8"))
    except json.JSONDecodeError as exc:
        raise ValueError(f"match result is not valid JSON: {exc}") from None
    result = MatchResult.from_json_dict(doc)
    _write_text(args.out, render_overlay(ref, probe, result))
    print(f"wrote overlay -> {args.out}")
    return 0


def cmd_synth(args) -> int:
    ref = random_edge_set(args.n, args.width, args.height, seed=args.seed)
    transform = Transform(s=args.scale, tx=args.tx, ty=args.ty)
    spec = CorruptionSpec(
        dropout=args.dropout,
        jitter_pos=args.jitter_pos,
        jitter_theta=args.jitter_theta,
        clutter_frac=args.clutter,
        seed=args.seed + 1,
    )
    pw = args.probe_width if args.probe_width is not None else args.width
    ph = args.probe_height if args.probe_height is not None else args.height
    probe = corrupt_and_transform(ref, transform, spec, pw, ph)
    prefix = args.out
    Path(prefix + ".ref.edgeset").write_bytes(edges_mod.serialize(ref))
    Path(prefix + ".probe.edgeset").write_bytes(edges_mod.serialize(probe))
    meta = {
        "version": 1,
        "seed": args.seed,
        "n": args.n,
        "frames": {"ref": [args.width, args.height], "probe": [pw, ph]},
        "transform": dataclasses.asdict(transform),
        "corruption": dataclasses.asdict(spec),
    }
    _write_text(prefix + ".meta.json", json.dumps(meta, indent=2) + "\n")
    print(
        f"wrote {len(ref)} ref edges and {len(probe)} probe edges -> "
        f"{prefix}.ref.edgeset, {prefix}.probe.edgeset"
    )
    return 0


def _parse_list(text: str, what: str, kind) -> list:
    try:
        return [kind(t) for t in text.split(",") if t != ""]
    except ValueError:
        raise ConfigError(f"invalid {what} list {text!r}") from None


def cmd_mc(args) -> int:
    ps = _parse_list(args.p, "--p", float)
    ms = _parse_list(args.m, "--m", int)
    if not ps or not ms:
        raise ConfigError("--p and --m must each list at least one value")
    lines = ["p,m,closed_form,mc_estimate,stderr"]
    for p in ps:
        for m in ms:
            closed = miss_probability_general(p, m, args.edges)
            est, se = monte_carlo_miss(
                ProbabilityParams(p=p, m=m),
                trials=args.trials,
                seed=args.seed,
                edges_per_couple=args.edges,
                workers=args.workers,
            )
            lines.append(f"{p},{m},{closed!r},{est!r},{se!r}")
    text = "\n".join(lines) + "\n"
    if args.out:
        _write_text(args.out, text)
        print(f"wrote {len(ps) * len(ms)} sweep rows -> {args.out}")
    else:
        sys.stdout.write(text)
    return 0


def cmd_gallery_enroll(args) -> int:
    gallery = load_gallery(args.root)
    es = _parse_edgeset_file(args.edgeset)
    enroll(gallery, args.id, es, source=args.edgeset)
    print(f"enrolled {args.id!r} ({len(es)} edges) into {args.root}")
    return 0


def cmd_gallery_search(args) -> int:
    _, hyp_cfg, ver_cfg = _configs(args)
    gallery = load_gallery(args.root)
    probe = _parse_edgeset_file(args.probe)
    results = search(gallery, probe, hyp_cfg, ver_cfg)
    for rank, (model_id, res) in enumerate(results, start=1):
        verdict = "accept" if res.decided else "reject"
        print(f"{rank:3d} {model_id} score={res.score:.4f} {verdict}")
    if args.out:
        doc = {
            "version": 1,
            "results": [
                {"id": model_id, "match": res.to_json_dict()}
                for model_id, res in results
            ],
        }
        _write_text(args.out, json.dumps(doc, indent=2) + "\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="edgematch",
        description="Oriented-edge extraction and translation+scale matching.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    # Only the commands that read the configs take --config and --verbose.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--config", help="JSON config file with sections "
                        "extract / hypothesis / verify")
    common.add_argument("--verbose", action="store_true",
                        help="print the effective configuration to stderr")

    p = sub.add_parser("extract", parents=[common],
                       help="detect edges in a PGM image")
    p.add_argument("image", help="input PGM (P2 or P5)")
    p.add_argument("--out", required=True, help="output .edgeset path")
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("match", parents=[common],
                       help="match a probe edge set against a reference")
    p.add_argument("--ref", required=True, help="reference .edgeset")
    p.add_argument("--probe", required=True, help="probe .edgeset")
    p.add_argument("--out", help="write the match result JSON here")
    p.set_defaults(func=cmd_match)

    p = sub.add_parser("overlay", help="render a match as an SVG overlay")
    p.add_argument("ref", help="reference .edgeset")
    p.add_argument("probe", help="probe .edgeset")
    p.add_argument("result", help="match result JSON")
    p.add_argument("--out", required=True, help="output .svg path")
    p.set_defaults(func=cmd_overlay)

    p = sub.add_parser("synth", help="generate a reference/probe edge-set pair")
    p.add_argument("--n", type=int, default=300, help="reference edge count")
    p.add_argument("--width", type=int, default=256)
    p.add_argument("--height", type=int, default=256)
    p.add_argument("--probe-width", type=int, default=None)
    p.add_argument("--probe-height", type=int, default=None)
    p.add_argument("--scale", type=float, default=1.0)
    p.add_argument("--tx", type=float, default=0.0)
    p.add_argument("--ty", type=float, default=0.0)
    p.add_argument("--dropout", type=float, default=0.0)
    p.add_argument("--jitter-pos", type=float, default=0.0)
    p.add_argument("--jitter-theta", type=float, default=0.0)
    p.add_argument("--clutter", type=float, default=0.0)
    p.add_argument("--seed", type=int, default=0,
                   help="seed of the reference set; the corruption uses seed + 1")
    p.add_argument("--out", required=True, help="output path prefix")
    p.set_defaults(func=cmd_synth)

    p = sub.add_parser("mc", help="Monte Carlo sweep of the basis-miss risk")
    p.add_argument("--p", required=True, help="comma-separated miss probabilities")
    p.add_argument("--m", required=True, help="comma-separated couple counts")
    p.add_argument("--trials", type=int, default=1_000_000)
    p.add_argument("--edges", type=int, default=2, choices=(2, 3),
                   help="edges per basis couple")
    p.add_argument("--workers", type=int, default=1)
    p.add_argument("--seed", type=int, default=0, help="seed of the simulated trials")
    p.add_argument("--out", help="output CSV path (stdout when omitted)")
    p.set_defaults(func=cmd_mc)

    p = sub.add_parser("gallery", help="enroll into or search a model gallery")
    gsub = p.add_subparsers(dest="gallery_command", required=True)

    g = gsub.add_parser("enroll", help="add an edge set")
    g.add_argument("edgeset", help=".edgeset file to enroll")
    g.add_argument("--root", required=True, help="gallery directory")
    g.add_argument("--id", required=True, help="unique model id")
    g.set_defaults(func=cmd_gallery_enroll, command="gallery enroll")

    g = gsub.add_parser("search", parents=[common],
                        help="rank enrolled models against a probe")
    g.add_argument("--root", required=True, help="gallery directory")
    g.add_argument("--probe", required=True, help="probe .edgeset")
    g.add_argument("--out", help="write ranked results JSON here")
    g.set_defaults(func=cmd_gallery_search, command="gallery search")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
