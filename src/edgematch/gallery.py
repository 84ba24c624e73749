"""On-disk model gallery: enrolled edge sets plus a JSON manifest."""

from __future__ import annotations

import json
import os
import re
import tempfile
from dataclasses import asdict, dataclass, field
from datetime import datetime, timezone
from pathlib import Path

from . import edges as edges_mod
from .basis import HypothesisConfig
from .edges import EdgeSet
from .verify import MatchResult, VerifyConfig, match

_ID_RE = re.compile(r"[A-Za-z0-9][A-Za-z0-9._-]*")

MANIFEST_NAME = "manifest.json"
MODELS_DIR = "models"


class GalleryError(ValueError):
    """Gallery precondition or consistency failure."""


@dataclass(frozen=True)
class GalleryEntry:
    id: str
    file: str
    source: str
    edge_count: int
    enrolled_at: str


@dataclass
class Gallery:
    root: Path
    manifest: list[GalleryEntry] = field(default_factory=list)

    def ids(self) -> list[str]:
        return [e.id for e in self.manifest]


def _model_file(id: str) -> str:
    """The model path, relative to the gallery root, of a valid id."""
    if not _ID_RE.fullmatch(id):
        raise GalleryError(
            f"id {id!r} invalid: use letters, digits, '.', '_', '-', not starting "
            "with a separator"
        )
    return f"{MODELS_DIR}/{id}.edgeset"


def _atomic_write(path: Path, data: bytes) -> None:
    fd, tmp = tempfile.mkstemp(dir=path.parent, prefix=path.name + ".")
    try:
        with os.fdopen(fd, "wb") as f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        try:
            os.unlink(tmp)
        except OSError:
            pass
        raise


def load_gallery(root: str | Path) -> Gallery:
    """Read a gallery rooted at `root`; a missing manifest means empty.

    Every manifest entry needs a valid, unique id and must name the existing
    model file models/<id>.edgeset, so no entry reaches outside the root.
    """
    root = Path(root)
    manifest_path = root / MANIFEST_NAME
    if not manifest_path.exists():
        return Gallery(root=root, manifest=[])
    try:
        raw = json.loads(manifest_path.read_text(encoding="utf-8"))
    except json.JSONDecodeError as exc:
        raise GalleryError(f"manifest is not valid JSON: {exc}") from None
    if not isinstance(raw, list):
        raise GalleryError("manifest must be a JSON array of entries")
    entries = []
    seen = set()
    for item in raw:
        try:
            entry = GalleryEntry(
                id=str(item["id"]),
                file=str(item["file"]),
                source=str(item.get("source", "")),
                edge_count=int(item["edge_count"]),
                enrolled_at=str(item["enrolled_at"]),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise GalleryError(f"malformed manifest entry {item!r}: {exc}") from None
        expected = _model_file(entry.id)
        if entry.file != expected:
            raise GalleryError(f"manifest entry {entry.id!r} names file {entry.file!r}, "
                               f"expected {expected!r}")
        if entry.id in seen:
            raise GalleryError(f"duplicate id {entry.id!r} in manifest")
        seen.add(entry.id)
        if not (root / entry.file).exists():
            raise GalleryError(f"missing model file {entry.file!r} for id {entry.id!r}")
        entries.append(entry)
    return Gallery(root=root, manifest=entries)


def _manifest_bytes(entries: list[GalleryEntry]) -> bytes:
    doc = [asdict(e) for e in entries]
    return (json.dumps(doc, indent=2) + "\n").encode("utf-8")


def enroll(
    gallery: Gallery,
    id: str,
    es: EdgeSet,
    source: str = "",
    timestamp: str | None = None,
) -> Gallery:
    """Add one model under a unique id; returns the updated gallery.

    The model file is written first, then the manifest, each atomically
    (temp file + rename), so a crash can orphan a model file but never leave
    the manifest pointing at a missing or partial one.
    """
    rel = _model_file(id)
    if id in gallery.ids():
        raise GalleryError(f"id {id!r} already enrolled")
    root = gallery.root
    models = root / MODELS_DIR
    try:
        models.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise GalleryError(f"gallery root not writable: {exc}") from None
    if timestamp is None:
        timestamp = datetime.now(timezone.utc).isoformat()
    entry = GalleryEntry(
        id=id, file=rel, source=source, edge_count=len(es), enrolled_at=timestamp
    )
    entries = gallery.manifest + [entry]
    try:
        _atomic_write(root / rel, edges_mod.serialize(es))
        _atomic_write(root / MANIFEST_NAME, _manifest_bytes(entries))
    except OSError as exc:
        raise GalleryError(f"gallery root not writable: {exc}") from None
    return Gallery(root=root, manifest=entries)


def search(
    gallery: Gallery,
    probe: EdgeSet,
    hyp_cfg: HypothesisConfig | None = None,
    ver_cfg: VerifyConfig | None = None,
) -> list[tuple[str, MatchResult]]:
    """Match the probe against every enrolled model.

    Results are sorted by descending score, ties by id; searching an empty
    gallery is an error.  Deterministic for a fixed gallery, probe, and
    configuration.
    """
    if not gallery.manifest:
        raise GalleryError("cannot search an empty gallery")
    results = []
    for entry in gallery.manifest:
        data = (gallery.root / entry.file).read_bytes()
        model = edges_mod.parse(data)
        results.append((entry.id, match(model, probe, hyp_cfg, ver_cfg)))
    results.sort(key=lambda r: (-r[1].score, r[0]))
    return results
