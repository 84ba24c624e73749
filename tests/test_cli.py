import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

import edgematch
from edgematch import Disk, parse, random_edge_set, render_shapes, save_pgm, serialize
from edgematch.cli import main


def write_edgeset(path, es):
    path.write_bytes(serialize(es))
    return str(path)


@pytest.fixture
def self_pair(tmp_path):
    es = random_edge_set(200, 256, 256, seed=12)
    p = write_edgeset(tmp_path / "a.edgeset", es)
    return p, p


# ----------------------------------------------------------------- extract


def test_extract_writes_a_parsable_edge_set(tmp_path, capsys):
    img = render_shapes(96, 96, (Disk(cx=48.0, cy=48.0, r=24.0, intensity=1.0),))
    pgm = tmp_path / "disk.pgm"
    pgm.write_bytes(save_pgm(img))
    out = tmp_path / "disk.edgeset"
    rc = main(["extract", str(pgm), "--out", str(out)])
    assert rc == 0
    assert "extracted" in capsys.readouterr().out
    es = parse(out.read_bytes())
    assert len(es) > 0
    assert (es.width, es.height) == (96, 96)


def test_extract_is_byte_reproducible(tmp_path):
    img = render_shapes(96, 96, (Disk(cx=48.0, cy=48.0, r=24.0, intensity=1.0),))
    pgm = tmp_path / "disk.pgm"
    pgm.write_bytes(save_pgm(img))
    a, b = tmp_path / "a.edgeset", tmp_path / "b.edgeset"
    assert main(["extract", str(pgm), "--out", str(a)]) == 0
    assert main(["extract", str(pgm), "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


# ------------------------------------------------------------------- match


def test_match_self_accepts(self_pair, tmp_path, capsys):
    ref, probe = self_pair
    out = tmp_path / "result.json"
    rc = main(["match", "--ref", ref, "--probe", probe, "--out", str(out)])
    assert rc == 0
    stdout = capsys.readouterr().out
    assert stdout.startswith("accept score=1.0000")
    doc = json.loads(out.read_text())
    assert doc["decided"] is True
    assert doc["score"] == 1.0
    assert doc["transform"] == {"s": 1.0, "tx": 0.0, "ty": 0.0}


def test_match_unrelated_rejects(tmp_path, capsys):
    a = write_edgeset(tmp_path / "a.edgeset", random_edge_set(200, 256, 256, seed=1))
    b = write_edgeset(tmp_path / "b.edgeset", random_edge_set(200, 256, 256, seed=2))
    rc = main(["match", "--ref", a, "--probe", b])
    assert rc == 1
    assert capsys.readouterr().out.startswith("reject")


def test_match_result_json_is_reproducible(self_pair, tmp_path):
    ref, probe = self_pair
    o1, o2 = tmp_path / "r1.json", tmp_path / "r2.json"
    main(["match", "--ref", ref, "--probe", probe, "--out", str(o1)])
    main(["match", "--ref", ref, "--probe", probe, "--out", str(o2)])
    assert o1.read_bytes() == o2.read_bytes()


def test_missing_input_file_is_a_clean_error(tmp_path, capsys):
    rc = main(["match", "--ref", str(tmp_path / "none.edgeset"),
               "--probe", str(tmp_path / "none.edgeset")])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")


def test_garbage_edgeset_is_a_clean_error(tmp_path, capsys):
    bad = tmp_path / "bad.edgeset"
    bad.write_bytes(b"not an edge set\n")
    rc = main(["match", "--ref", str(bad), "--probe", str(bad)])
    assert rc == 2
    assert "error:" in capsys.readouterr().err


def test_unknown_flag_exits_with_usage_error(capsys):
    # --seed belongs to synth and mc only: nothing else draws random numbers.
    # --config belongs to extract, match and gallery search only: nothing
    # else reads the configs.
    for argv in (["match", "--nope"],
                 ["match", "--ref", "a.edgeset", "--probe", "b.edgeset", "--seed", "3"],
                 ["overlay", "a.edgeset", "b.edgeset", "r.json", "--out", "o.svg",
                  "--config", "c.json"],
                 SYNTH_ARGS + ["--out", "x", "--config", "c.json"],
                 ["mc", "--p", "0.1", "--m", "5", "--config", "c.json"],
                 ["gallery", "enroll", "a.edgeset", "--root", "g", "--id", "a",
                  "--config", "c.json"]):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
    capsys.readouterr()


# ------------------------------------------------------------------- synth


SYNTH_ARGS = ["synth", "--n", "120", "--scale", "1.1", "--tx", "5", "--ty", "-3",
              "--dropout", "0.1", "--jitter-pos", "0.3", "--clutter", "0.05"]


def test_synth_is_deterministic_and_self_describing(tmp_path, capsys):
    rc = main(SYNTH_ARGS + ["--out", str(tmp_path / "one")])
    assert rc == 0
    assert main(SYNTH_ARGS + ["--out", str(tmp_path / "two")]) == 0
    for suffix in (".ref.edgeset", ".probe.edgeset", ".meta.json"):
        assert (tmp_path / ("one" + suffix)).read_bytes() == \
            (tmp_path / ("two" + suffix)).read_bytes()
    meta = json.loads((tmp_path / "one.meta.json").read_text())
    assert meta["transform"] == {"s": 1.1, "tx": 5.0, "ty": -3.0}
    assert meta["n"] == 120
    assert meta["corruption"]["seed"] == meta["seed"] + 1
    capsys.readouterr()


def test_synth_then_match_recovers_the_planted_transform(tmp_path, capsys):
    assert main(["synth", "--n", "300", "--scale", "1.1", "--tx", "5", "--ty", "-3",
                 "--out", str(tmp_path / "pair")]) == 0
    rc = main(["match", "--ref", str(tmp_path / "pair.ref.edgeset"),
               "--probe", str(tmp_path / "pair.probe.edgeset")])
    assert rc == 0
    out = capsys.readouterr().out
    assert "accept" in out
    assert "s=1.1000" in out


@pytest.mark.parametrize("flag, field", [("--jitter-pos", "jitter_pos"),
                                         ("--jitter-theta", "jitter_theta"),
                                         ("--clutter", "clutter_frac")])
@pytest.mark.parametrize("value", ["nan", "inf"])
def test_synth_refuses_non_finite_corruption(tmp_path, capsys, flag, field, value):
    out = tmp_path / "pair"
    assert main(["synth", "--n", "10", flag, value, "--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert not (tmp_path / "pair.probe.edgeset").exists()


# ---------------------------------------------------------------------- mc


def test_mc_csv_shape_and_worker_invariance(tmp_path):
    base = ["mc", "--p", "0.1,0.25", "--m", "5,10", "--trials", "20000"]
    w1, w2 = tmp_path / "w1.csv", tmp_path / "w2.csv"
    assert main(base + ["--workers", "1", "--out", str(w1)]) == 0
    assert main(base + ["--workers", "2", "--out", str(w2)]) == 0
    assert w1.read_bytes() == w2.read_bytes()
    lines = w1.read_text().splitlines()
    assert lines[0] == "p,m,closed_form,mc_estimate,stderr"
    assert len(lines) == 5
    seeded = tmp_path / "seeded.csv"
    assert main(base + ["--seed", "5", "--out", str(seeded)]) == 0
    assert seeded.read_bytes() != w1.read_bytes()


def test_mc_writes_csv_to_stdout_without_out(capsys):
    assert main(["mc", "--p", "0.2", "--m", "4", "--trials", "1000"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("p,m,closed_form,mc_estimate,stderr\n")
    row = out.splitlines()[1].split(",")
    assert row[:2] == ["0.2", "4"]
    assert 0.0 <= float(row[3]) <= 1.0


def test_mc_rejects_malformed_lists(capsys):
    rc = main(["mc", "--p", "0.1,abc", "--m", "5", "--trials", "100"])
    assert rc == 2
    assert "invalid --p list" in capsys.readouterr().err


# ----------------------------------------------------------------- overlay


def test_overlay_renders_svg(self_pair, tmp_path, capsys):
    ref, probe = self_pair
    result = tmp_path / "result.json"
    main(["match", "--ref", ref, "--probe", probe, "--out", str(result)])
    svg_path = tmp_path / "overlay.svg"
    rc = main(["overlay", ref, probe, str(result), "--out", str(svg_path)])
    assert rc == 0
    text = svg_path.read_text()
    root = ET.fromstring(text)
    assert root.tag.endswith("svg")
    assert 'class="matched"' in text
    assert 'class="basis"' in text
    capsys.readouterr()


@pytest.mark.parametrize(
    "edit",
    [
        lambda doc: {"version": 1},
        lambda doc: {**doc, "matched_pairs": [[999, 0]]},
        lambda doc: {**doc, "matched_pairs": [[-1, 0]]},
        lambda doc: {**doc, "decided": "yes"},
        lambda doc: {**doc, "basis": {"ref": [0, 1], "probe": [0, 200]}},
        lambda doc: {**doc, "transform": {}},
        lambda doc: {**doc, "basis": {}},
    ],
    ids=["fields-missing", "pair-index-too-large", "pair-index-negative",
         "field-mistyped", "basis-index-too-large", "transform-empty", "basis-empty"],
)
def test_overlay_rejects_malformed_result(self_pair, tmp_path, capsys, edit):
    ref, probe = self_pair
    result = tmp_path / "result.json"
    main(["match", "--ref", ref, "--probe", probe, "--out", str(result)])
    result.write_text(json.dumps(edit(json.loads(result.read_text()))))
    svg_path = tmp_path / "overlay.svg"
    rc = main(["overlay", ref, probe, str(result), "--out", str(svg_path)])
    assert rc == 2
    assert capsys.readouterr().err.startswith("error:")
    assert not svg_path.exists()


# ----------------------------------------------------------------- gallery


def test_gallery_enroll_and_search(tmp_path, capsys):
    root = tmp_path / "gal"
    a = write_edgeset(tmp_path / "a.edgeset", random_edge_set(150, 256, 256, seed=31))
    b = write_edgeset(tmp_path / "b.edgeset", random_edge_set(150, 256, 256, seed=32))
    assert main(["gallery", "enroll", a, "--root", str(root), "--id", "alpha"]) == 0
    assert main(["gallery", "enroll", b, "--root", str(root), "--id", "beta"]) == 0
    capsys.readouterr()

    out = tmp_path / "ranked.json"
    rc = main(["gallery", "search", "--root", str(root), "--probe", a,
               "--out", str(out)])
    assert rc == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines[0].split() == ["1", "alpha", "score=1.0000", "accept"]
    doc = json.loads(out.read_text())
    assert [r["id"] for r in doc["results"]] == ["alpha", "beta"]
    assert doc["results"][0]["match"]["decided"] is True


def test_gallery_search_names_a_model_file_that_does_not_parse(tmp_path, capsys):
    root = tmp_path / "gal"
    for k in range(3):
        es = write_edgeset(tmp_path / f"m{k}.edgeset", random_edge_set(20, 256, 256, seed=k))
        assert main(["gallery", "enroll", es, "--root", str(root), "--id", f"m{k}"]) == 0
    path = root / "models" / "m2.edgeset"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[4] = b"1.0 2.0 3.0\n"
    path.write_bytes(b"".join(lines))
    capsys.readouterr()
    rc = main(["gallery", "search", "--root", str(root), "--probe",
               str(tmp_path / "m0.edgeset")])
    assert rc == 2
    assert capsys.readouterr().err == (
        "error: model 'm2' (models/m2.edgeset): line 5: expected 6 fields, got 3\n")


def test_gallery_search_budget_beyond_int64_equals_a_large_budget(tmp_path):
    root = tmp_path / "gal"
    for k in range(1, 4):
        es = write_edgeset(tmp_path / f"m{k}.edgeset", random_edge_set(200, 256, 256, seed=k))
        assert main(["gallery", "enroll", es, "--root", str(root), "--id", f"m{k}"]) == 0
    probe = write_edgeset(tmp_path / "probe.edgeset", random_edge_set(30, 256, 256, seed=5))

    def search_args(budget):
        cfg = tmp_path / f"cfg{budget}.json"
        cfg.write_text(json.dumps({"verify": {"max_branches": budget}}))
        return ["gallery", "search", "--root", str(root), "--probe", probe,
                "--config", str(cfg), "--out", str(tmp_path / f"ranked{budget}.json")]

    assert main(search_args(10**6)) in (0, 1)
    # In a child process, so that a crash inside numpy fails this test only.
    src = str(Path(edgematch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    proc = subprocess.run([sys.executable, "-m", "edgematch.cli", *search_args(2**63 - 1)],
                          env=env, capture_output=True, text=True, timeout=120)
    assert proc.returncode in (0, 1), proc.stderr
    assert "Traceback" not in proc.stderr
    ranked = [(tmp_path / f"ranked{b}.json").read_bytes() for b in (10**6, 2**63 - 1)]
    assert ranked[1] == ranked[0]


def test_gallery_duplicate_enroll_fails(tmp_path, capsys):
    root = tmp_path / "gal"
    a = write_edgeset(tmp_path / "a.edgeset", random_edge_set(50, 256, 256, seed=31))
    assert main(["gallery", "enroll", a, "--root", str(root), "--id", "alpha"]) == 0
    rc = main(["gallery", "enroll", a, "--root", str(root), "--id", "alpha"])
    assert rc == 2
    assert "already enrolled" in capsys.readouterr().err


# ------------------------------------------------------------------ config


def test_config_file_overrides_are_applied(self_pair, tmp_path, capsys):
    ref, probe = self_pair
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verify": {"accept_score": 0.99}}))
    rc = main(["match", "--ref", ref, "--probe", probe, "--config", str(cfg),
               "--verbose"])
    assert rc == 0
    err = capsys.readouterr().err
    effective = json.loads(err)
    assert effective["verify"]["accept_score"] == 0.99
    assert effective["hypothesis"]["s_max"] == 2.0


def test_config_rejects_unknown_key(self_pair, tmp_path, capsys):
    ref, probe = self_pair
    cfg = tmp_path / "cfg.json"
    for section in ({"acceptance": 0.5}, {"seed": 0}):
        cfg.write_text(json.dumps({"verify": section}))
        rc = main(["match", "--ref", ref, "--probe", probe, "--config", str(cfg)])
        assert rc == 2
        assert "unknown key" in capsys.readouterr().err


def test_config_rejects_unknown_section(self_pair, tmp_path, capsys):
    ref, probe = self_pair
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"verification": {}}))
    rc = main(["match", "--ref", ref, "--probe", probe, "--config", str(cfg)])
    assert rc == 2
    assert "unknown config section" in capsys.readouterr().err


def test_config_rejects_invalid_values(self_pair, tmp_path, capsys):
    ref, probe = self_pair
    cfg = tmp_path / "cfg.json"
    # The budgets are integers: 2.5 once crashed with a TypeError or was
    # silently accepted.
    for doc in ({"verify": {"miss_factor": 1.5}},
                {"hypothesis": {"max_basis_a": 2.5}},
                {"hypothesis": {"max_pairs_n": 2.5}},
                {"verify": {"probe_count": 2.5}},
                {"verify": {"max_branches": 2.5}},
                {"extract": {"border_margin": 2.5}},
                {"verify": {"max_branches": True}},
                # A section that is not a JSON object once ended in a
                # TypeError traceback or was read as a list of keys.
                {"hypothesis": None}, {"verify": 5}, {"extract": "abc"},
                {"hypothesis": []}):
        cfg.write_text(json.dumps(doc))
        rc = main(["match", "--ref", ref, "--probe", probe, "--config", str(cfg)])
        assert rc == 2, doc
        assert "invalid config section" in capsys.readouterr().err


def test_config_rejects_nan_tolerances(self_pair, tmp_path, capsys):
    # json reads NaN, and `x <= 0.0` is false for it: a NaN tolerance was
    # accepted and made every angle or position test fail.
    ref, probe = self_pair
    cfg = tmp_path / "cfg.json"
    for section, key in (("hypothesis", "eps_theta"), ("hypothesis", "eps_phi"),
                         ("hypothesis", "min_dist"), ("verify", "eps_pos"),
                         ("verify", "eps_theta")):
        cfg.write_text(json.dumps({section: {key: float("nan")}}))
        assert "NaN" in cfg.read_text()
        rc = main(["match", "--ref", ref, "--probe", probe, "--config", str(cfg)])
        assert rc == 2, key
        err = capsys.readouterr().err
        assert err.startswith("error:") and key in err
