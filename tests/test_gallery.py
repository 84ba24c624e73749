import hashlib
import json
import os
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import asdict
from pathlib import Path

import pytest

import edgematch
from edgematch import edges as edges_mod
from edgematch import verify as verify_mod
from edgematch import (
    CorruptionSpec,
    Edge,
    EdgeSet,
    GalleryError,
    Transform,
    corrupt_and_transform,
    enroll,
    load_gallery,
    match,
    parse,
    random_edge_set,
    search,
)

TS = "2024-01-01T00:00:00+00:00"


def build_small_gallery(root, n_models=5, n_edges=200):
    g = load_gallery(root)
    for k in range(n_models):
        es = random_edge_set(n_edges, 256, 256, seed=100 + k)
        g = enroll(g, f"model-{k}", es, source=f"seed {100 + k}", timestamp=TS)
    return g


def test_enroll_and_reload(tmp_path):
    g = build_small_gallery(tmp_path)
    assert g.ids() == [f"model-{k}" for k in range(5)]

    back = load_gallery(tmp_path)
    assert back.ids() == g.ids()
    for entry in back.manifest:
        assert entry.edge_count == 200
        assert entry.enrolled_at == TS
        model = parse((tmp_path / entry.file).read_bytes())
        assert len(model) == 200


def test_enroll_is_byte_reproducible(tmp_path):
    a_root = tmp_path / "a"
    b_root = tmp_path / "b"
    build_small_gallery(a_root, n_models=2)
    build_small_gallery(b_root, n_models=2)
    assert (a_root / "manifest.json").read_bytes() == (b_root / "manifest.json").read_bytes()


def test_no_temp_files_left_behind(tmp_path):
    build_small_gallery(tmp_path, n_models=2)
    names = [p.name for p in tmp_path.rglob("*") if p.is_file()]
    assert sorted(names) == ["gallery.lock", "manifest.json", "model-0.edgeset",
                             "model-1.edgeset"]


def test_duplicate_id_rejected(tmp_path):
    g = load_gallery(tmp_path)
    es = random_edge_set(10, 64, 64, seed=0)
    g = enroll(g, "m", es, timestamp=TS)
    with pytest.raises(GalleryError, match="already enrolled"):
        enroll(g, "m", es, timestamp=TS)


def test_enroll_rereads_the_manifest(tmp_path):
    # Two handles loaded before either enrolls: the second enroll must keep
    # the first one's entry and refuse its id.
    a, b = load_gallery(tmp_path), load_gallery(tmp_path)
    enroll(a, "m", random_edge_set(10, 64, 64, seed=0), timestamp=TS)
    with pytest.raises(GalleryError, match="already enrolled"):
        enroll(b, "m", random_edge_set(10, 64, 64, seed=1), timestamp=TS)
    assert enroll(b, "n", random_edge_set(10, 64, 64, seed=2), timestamp=TS).ids() == ["m", "n"]
    assert load_gallery(tmp_path).ids() == ["m", "n"]


# Run by each writer of test_concurrent_enrolls_keep_every_entry: load the
# gallery, signal ready, wait for the go file, then enroll four models.
ENROLL_WORKER = """
import sys, time
from pathlib import Path
from edgematch import enroll, load_gallery, random_edge_set
root, w, ready, go = Path(sys.argv[1]), int(sys.argv[2]), Path(sys.argv[3]), Path(sys.argv[4])
g = load_gallery(root)
models = [random_edge_set(50, 64, 64, seed=10 * w + k) for k in range(4)]
ready.touch()
while not go.exists():
    time.sleep(0.001)
for k, es in enumerate(models):
    g = enroll(g, f"w{w}-m{k}", es)
"""


def test_concurrent_enrolls_keep_every_entry(tmp_path):
    root, go = tmp_path / "g", tmp_path / "go"
    ready = [tmp_path / f"ready{w}" for w in range(4)]
    src = str(Path(edgematch.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    procs = [subprocess.Popen([sys.executable, "-c", ENROLL_WORKER, str(root), str(w),
                               str(ready[w]), str(go)], env=env)
             for w in range(4)]
    try:
        deadline = time.monotonic() + 60.0
        while not all(r.exists() for r in ready):
            assert time.monotonic() < deadline
            assert all(p.poll() is None for p in procs)
            time.sleep(0.01)
        go.touch()
        codes = [p.wait(timeout=60.0) for p in procs]
    finally:
        for p in procs:
            if p.poll() is None:
                p.kill()
                p.wait()
    assert codes == [0, 0, 0, 0]
    want = sorted(f"w{w}-m{k}" for w in range(4) for k in range(4))
    assert sorted(load_gallery(root).ids()) == want
    assert sorted(f.name for f in (root / "models").iterdir()) == [f"{i}.edgeset" for i in want]


@pytest.mark.parametrize("bad_id", ["", ".hidden", "-x", "_x", "a/b", "a b", "a:b", "x\n"])
def test_invalid_ids_rejected(tmp_path, bad_id):
    g = load_gallery(tmp_path)
    with pytest.raises(GalleryError, match="invalid"):
        enroll(g, bad_id, random_edge_set(5, 64, 64, seed=0), timestamp=TS)


def test_permissive_id_charset(tmp_path):
    g = load_gallery(tmp_path)
    g = enroll(g, "ok.name-1_x", random_edge_set(5, 64, 64, seed=0), timestamp=TS)
    assert load_gallery(tmp_path).ids() == ["ok.name-1_x"]


def test_missing_root_is_empty(tmp_path):
    g = load_gallery(tmp_path / "nowhere")
    assert g.ids() == []


def test_corrupt_manifest_raises(tmp_path):
    (tmp_path / "manifest.json").write_text("{not json", encoding="utf-8")
    with pytest.raises(GalleryError, match="not valid JSON"):
        load_gallery(tmp_path)


def test_non_array_manifest_raises(tmp_path):
    (tmp_path / "manifest.json").write_text('{"id": "x"}', encoding="utf-8")
    with pytest.raises(GalleryError, match="JSON array"):
        load_gallery(tmp_path)


def test_missing_model_file_raises(tmp_path):
    g = load_gallery(tmp_path)
    enroll(g, "m", random_edge_set(5, 64, 64, seed=0), timestamp=TS)
    (tmp_path / "models" / "m.edgeset").unlink()
    with pytest.raises(GalleryError, match="missing model file"):
        load_gallery(tmp_path)


def test_malformed_entry_raises(tmp_path):
    (tmp_path / "manifest.json").write_text(
        json.dumps([{"id": "x", "file": "models/x.edgeset"}]), encoding="utf-8"
    )
    with pytest.raises(GalleryError, match="malformed manifest entry"):
        load_gallery(tmp_path)


@pytest.mark.parametrize("edge_count", [300.9, 20.0, True, -1, "20", None])
def test_manifest_edge_count_must_be_a_json_integer(tmp_path, edge_count):
    g = enroll(load_gallery(tmp_path), "m", random_edge_set(20, 64, 64, seed=0), timestamp=TS)
    entry = dict(asdict(g.manifest[0]), edge_count=edge_count)
    (tmp_path / "manifest.json").write_text(json.dumps([entry]), encoding="utf-8")
    with pytest.raises(GalleryError, match="malformed manifest entry.*edge_count"):
        load_gallery(tmp_path)


@pytest.mark.parametrize(
    "entry_id,file",
    [
        ("x", "{outside}"),
        ("x", "../outside.edgeset"),
        ("x", "models/../../outside.edgeset"),
        ("../../outside", "models/../../outside.edgeset"),
        ("x", "models/y.edgeset"),
    ],
)
def test_manifest_entries_must_name_their_own_model_file(tmp_path, entry_id, file):
    root = tmp_path / "gallery"
    g = enroll(load_gallery(root), "y", random_edge_set(20, 64, 64, seed=1), timestamp=TS)
    outside = tmp_path / "outside.edgeset"
    outside.write_bytes((root / g.manifest[0].file).read_bytes())
    entry = {"id": entry_id, "file": file.format(outside=outside), "source": "", "edge_count": 20, "enrolled_at": TS}
    (root / "manifest.json").write_text(json.dumps([entry]), encoding="utf-8")
    with pytest.raises(GalleryError, match="invalid|names file"):
        load_gallery(root)


def test_search_ranks_the_true_model_first(tmp_path):
    g = build_small_gallery(tmp_path)
    truth = random_edge_set(200, 256, 256, seed=103)  # same seed as model-3
    probe = corrupt_and_transform(
        truth,
        Transform(s=1.05, tx=4.0, ty=-2.0),
        CorruptionSpec(dropout=0.05, jitter_pos=0.3, jitter_theta=0.02,
                       clutter_frac=0.05, seed=77),
        300, 300,
    )
    results = search(g, probe)
    assert results[0][0] == "model-3"
    assert results[0][1].decided
    assert all(not r.decided for _, r in results[1:])
    # ranking is by descending score with id tie-break
    scores = [r.score for _, r in results]
    assert scores == sorted(scores, reverse=True)


def test_search_builds_one_grid_per_edge_set(tmp_path, monkeypatch):
    # Each model is the probe shifted, so every match both screens (on the
    # probe's grid) and counts coincidences (on the model's grid).
    probe = random_edge_set(200, 256, 256, seed=5)
    g = load_gallery(tmp_path)
    for k in range(3):
        shift = Transform(s=1.0, tx=1.0 + k, ty=-2.0)
        model = corrupt_and_transform(probe, shift, CorruptionSpec(seed=k), 256, 256)
        g = enroll(g, f"model-{k}", model, timestamp=TS)
    built = []
    original = edges_mod.build_index

    def counting(es, *args):
        built.append(es)
        return original(es, *args)

    # Wrap every binding of build_index in the package, as the bench tracer does.
    for name, mod in list(sys.modules.items()):
        if name == "edgematch" or name.startswith("edgematch."):
            for attr, value in list(vars(mod).items()):
                if value is original:
                    monkeypatch.setattr(mod, attr, counting)
    results = search(g, probe)
    assert all(r.decided for _, r in results)
    # The probe once, then each model once.
    assert len(built) == 4
    assert sum(es is probe for es in built) == 1


def test_search_empty_gallery_raises(tmp_path):
    with pytest.raises(GalleryError, match="empty gallery"):
        search(load_gallery(tmp_path), random_edge_set(10, 64, 64, seed=0))


def test_search_rejects_a_model_whose_edge_count_differs_from_its_entry(tmp_path):
    g = build_small_gallery(tmp_path, n_models=3, n_edges=50)
    (tmp_path / "models" / "model-1.edgeset").write_bytes(
        edges_mod.serialize(random_edge_set(5, 256, 256, seed=9)))
    with pytest.raises(GalleryError, match=r"'model-1' has 5 edges, manifest says 50"):
        search(load_gallery(tmp_path), random_edge_set(50, 256, 256, seed=0))


def test_search_names_a_model_file_that_does_not_parse(tmp_path):
    build_small_gallery(tmp_path, n_models=3, n_edges=50)
    path = tmp_path / "models" / "model-1.edgeset"
    lines = path.read_bytes().splitlines(keepends=True)
    lines[4] = b"1.0 2.0 3.0\n"
    path.write_bytes(b"".join(lines))
    with pytest.raises(GalleryError, match=r"^model 'model-1' \(models/model-1\.edgeset\): "
                                           r"line 5: expected 6 fields, got 3$"):
        search(load_gallery(tmp_path), random_edge_set(50, 256, 256, seed=0))


# ---------------------------------------------------------- lock-step search


def mixed_gallery(root):
    """Models of every kind that a walk in lock-step treats apart, the planted
    one in the middle, with probes that hit it, miss every model, and form no
    couple."""
    planted = random_edge_set(200, 256, 256, seed=61)
    # Parallel edges form no admissible couple, so this walk reads no basis.
    parallel = EdgeSet(256, 256, [Edge(20.0 + 40.0 * k, 30.0 + 25.0 * k, 1.0, 0.9)
                                  for k in range(6)])
    models = [
        ("big-a", random_edge_set(300, 256, 256, seed=62)),
        ("few", random_edge_set(12, 256, 256, seed=63)),  # fewer than probe_count
        ("planted", planted),
        ("parallel", parallel),
        ("empty", EdgeSet(256, 256, [])),
        ("big-b", random_edge_set(300, 256, 256, seed=64)),
    ]
    g = load_gallery(root)
    for id, es in models:
        g = enroll(g, id, es, timestamp=TS)
    probes = [
        corrupt_and_transform(planted, Transform(s=1.1, tx=-6.0, ty=4.0),
                              CorruptionSpec(dropout=0.1, jitter_pos=0.3, jitter_theta=0.02,
                                             clutter_frac=0.1, seed=65), 300, 300),
        random_edge_set(1000, 400, 400, seed=66),
        random_edge_set(1, 256, 256, seed=67),
    ]
    return g, probes


def test_search_json_digest_pinned(tmp_path):
    g, probes = mixed_gallery(tmp_path)
    out = [search(g, probe) for probe in probes]
    assert out[0][0][0] == "planted" and out[0][0][1].decided
    doc = json.dumps([[[id, r.to_json_dict()] for id, r in res] for res in out],
                     sort_keys=True)
    assert hashlib.sha256(doc.encode()).hexdigest() == (
        "33209740c12c5af571f1ff44639d24dbaf074218629d17e05c4d33aa501ea5b8")


def test_search_reads_the_bases_and_branches_of_one_match_per_model(tmp_path, monkeypatch):
    g, probes = mixed_gallery(tmp_path)
    original = verify_mod.iter_basis_pairs
    read = defaultdict(list)

    def counting(es, cfg=None):
        for bp in original(es, cfg):
            read[edges_mod.serialize(es)].append(bp)
            yield bp

    monkeypatch.setattr(verify_mod, "iter_basis_pairs", counting)
    models = {e.id: parse((tmp_path / e.file).read_bytes()) for e in g.manifest}
    for probe in probes:
        read.clear()
        together = dict(search(g, probe))
        in_search = dict(read)
        if together["planted"].decided:
            # An accept on the first branch stops that walk after one basis,
            # while the others read on.
            assert together["planted"].branches_tried == 1
            assert len(in_search[edges_mod.serialize(models["planted"])]) == 1
        for id, model in models.items():
            read.clear()
            alone = match(model, probe)
            key = edges_mod.serialize(model)
            assert in_search.get(key, []) == read.get(key, []), id
            assert together[id].branches_tried == alone.branches_tried, id
            assert together[id].to_json_dict() == alone.to_json_dict(), id
