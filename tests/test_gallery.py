import json

import pytest

from edgematch import (
    CorruptionSpec,
    GalleryError,
    Transform,
    corrupt_and_transform,
    enroll,
    load_gallery,
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
    assert sorted(names) == ["manifest.json", "model-0.edgeset", "model-1.edgeset"]


def test_duplicate_id_rejected(tmp_path):
    g = load_gallery(tmp_path)
    es = random_edge_set(10, 64, 64, seed=0)
    g = enroll(g, "m", es, timestamp=TS)
    with pytest.raises(GalleryError, match="already enrolled"):
        enroll(g, "m", es, timestamp=TS)


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


def test_search_empty_gallery_raises(tmp_path):
    with pytest.raises(GalleryError, match="empty gallery"):
        search(load_gallery(tmp_path), random_edge_set(10, 64, 64, seed=0))
