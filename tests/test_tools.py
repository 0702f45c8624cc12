"""``tools/identity.py``: output hashing, the tree comparison, and a smoke
run of HEAD against the working tree."""
from __future__ import annotations

import importlib.util
import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "identity.py"

_spec = importlib.util.spec_from_file_location("identity", TOOL)
identity = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(identity)


def _write(root: Path, files: dict) -> Path:
    for name, text in files.items():
        path = root / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


TIMINGS = ("cell,phase,view,repetitions,train_seconds_mean,"
           "infer_seconds_mean\nGRU/Input,,,%d,%s,%s\nGRU/Feature,,,2,,\n")


def test_digest_skips_timings_and_blanks_manifest_run_fields(tmp_path):
    # timings.csv is hashed with its seconds blanked, not skipped
    manifest = ('{\n  "config": {\n    "output_dir": "%s"\n  },\n'
                '  "created": "%s",\n  "kind": "cell"\n}\n')
    a = identity.digest_outputs(_write(tmp_path / "a", {
        "run/manifest": manifest % ("x", "2026-01-01"),
        "run/reports/timings.csv": TIMINGS % (2, "1.5", "0.25"),
        "run/records.csv": "r\n"}))
    b = identity.digest_outputs(_write(tmp_path / "b", {
        "run/manifest": manifest % ("y", "2026-02-02"),
        "run/reports/timings.csv": TIMINGS % (2, "3.0", "0.125"),
        "run/records.csv": "r\n"}))
    assert sorted(a) == ["run/manifest", "run/records.csv",
                         "run/reports/timings.csv"]
    assert a == b
    c = identity.digest_outputs(_write(tmp_path / "c", {
        "run/manifest": (manifest % ("x", "2026-01-01")).replace("cell", "grid"),
        "run/records.csv": "r\n"}))
    assert c["run/manifest"] != a["run/manifest"]


def test_timings_differ_in_repetitions_and_empty_means(tmp_path):
    def digest(name, text):
        return identity.digest_outputs(_write(tmp_path / name, {
            "t/timings.csv": text}))["t/timings.csv"]

    base = digest("a", TIMINGS % (2, "1.5", "0.25"))
    assert digest("b", TIMINGS % (3, "1.5", "0.25")) != base
    assert digest("c", TIMINGS % (2, "", "")) != base


def test_compare_flags_changed_and_one_sided_files():
    rev = {"a/records.csv": "1", "a/manifest": "2", "b/x": "3"}
    tree = {"a/records.csv": "1", "a/manifest": "9", "c/y": "4"}
    diffs = identity.compare(rev, tree, expected=["*/manifest"])
    assert diffs == [
        {"file": "a/manifest", "status": "changed", "expected": True},
        {"file": "b/x", "status": "only-in-rev", "expected": False},
        {"file": "c/y", "status": "only-in-tree", "expected": False},
    ]


def test_smoke_against_head_is_identical():
    try:
        head = subprocess.run(["git", "-C", str(ROOT), "rev-parse",
                               "--verify", "HEAD"], capture_output=True)
    except FileNotFoundError:
        pytest.skip("git is not installed")
    if head.returncode != 0:
        pytest.skip("not a git checkout with a commit")
    proc = subprocess.run(
        [sys.executable, str(TOOL), "--against", "HEAD", "--smoke",
         "--threads", "1"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    report = json.loads(proc.stdout)
    assert report["ok"] is True
    assert report["threads"]["1"]["files"] == 34
    assert report["threads"]["1"]["differences"] == []
