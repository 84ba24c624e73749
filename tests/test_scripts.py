"""The scripts under scripts/ run end to end on tiny inputs, so that a
change to the library API cannot leave them broken."""

import csv
import json
import re
import runpy
from pathlib import Path

from edgematch import MatchResult

SCRIPTS = Path(__file__).resolve().parents[1] / "scripts"


def run_script(name, argv):
    # Any run name but __main__ loads the script without running it.
    main = runpy.run_path(str(SCRIPTS / name), run_name="edgematch_script")["main"]
    return main(argv)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def test_mc_sweep(tmp_path, capsys):
    out = tmp_path / "mc.csv"
    assert run_script("mc_sweep.py", ["--trials", "2000", "--workers", "1",
                                      "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [(r["p"], r["m"]) for r in rows] == [
        (p, m) for p in ("0.05", "0.1", "0.25", "0.5") for m in ("1", "5", "10", "20")
    ]
    assert "worst deviation" in capsys.readouterr().out


def test_recovery_experiment(tmp_path):
    out = tmp_path / "recovery.csv"
    assert run_script("recovery_experiment.py", ["--trials", "2", "--edges", "100",
                                                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert [r["dropout"] for r in rows] == ["0.0", "0.1", "0.25", "0.4"]
    assert all(int(r["recovered"]) <= int(r["accepted"]) <= 2 for r in rows)


def test_disk_pipeline_demo(tmp_path):
    assert run_script("disk_pipeline_demo.py", ["--outdir", str(tmp_path)]) == 0
    for name in ("scene.pgm", "scene.edgeset", "probe.edgeset", "overlay.svg"):
        assert (tmp_path / name).stat().st_size > 0
    result = MatchResult.from_json_dict(json.loads((tmp_path / "result.json").read_text()))
    assert result.decided


def test_failure_table_one_seed(capsys):
    assert run_script("failure_table.py", ["--seeds", "41"]) == 0
    out = capsys.readouterr().out
    assert re.search(r"^\| defaults \| \d/5 \| \d/4 \| \d+/20 \| \d+/40 \(0\.\d{3}\) \|$",
                     out, re.MULTILINE), out
