"""Smoke tests: each experiment script runs with small arguments in a
fresh interpreter, exits 0 and leaves its artifacts."""

import csv
import json
import os
import subprocess
import sys

import pytest

SCRIPTS = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "scripts")


def _run(cwd, name, *args):
    proc = subprocess.run([sys.executable, os.path.join(SCRIPTS, name), *args],
                          cwd=cwd, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_length_model_check(tmp_path):
    out = _run(tmp_path, "length_model_check.py", "--n-max", "10", "--height", "20")
    assert "model dimension delta = 0.69424191" in out
    assert "32 zeros in Rectangle" in out
    assert out.count("passed=True") == 3


def test_dimension_study(tmp_path):
    _run(tmp_path, "dimension_study.py", "--c-values", "-6", "--level", "1",
         "--out", "dim.csv")
    with open(tmp_path / "dim.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 1 and float(rows[0]["c"]) == -6.0
    assert float(rows[0]["delta_zeta"]) == pytest.approx(0.45183750018171, abs=1e-12)


def test_zero_census(tmp_path):
    _run(tmp_path, "zero_census.py", "--height", "3", "--level", "1", "--out-dir", "census")
    census = tmp_path / "census"
    assert sorted(os.listdir(census)) == ["census_summary.json", "strip_counts.csv",
                                          "zeros.csv"]
    with open(census / "zeros.csv", newline="") as fh:
        zeros = [complex(float(r["re_s"]), float(r["im_s"])) for r in csv.DictReader(fh)]
    assert len(zeros) == 4
    assert any(z.imag == 0.0 and abs(z.real - 0.45183750018171) < 1e-12 for z in zeros)
    with open(census / "census_summary.json") as fh:
        summary = json.load(fh)
    assert {"delta", "strip", "growth"} <= set(summary)
    # the determinants of the leading real zero and of the scan, apart
    counts = summary["determinants"]
    assert counts["leading_real_zero"] > 0 and counts["scan"] > 0
    assert counts["per_zero"] == counts["scan"] / len(zeros)


def test_catalog_timing(tmp_path):
    out = _run(tmp_path, "catalog_timing.py", "--c", "-6", "--n-max", "8")
    timing = json.loads(out.strip().splitlines()[-1])
    # the prime orbits of periods 1..8, and their points
    assert timing["prime_orbits"] == 71
    assert timing["periodic_points"] == sum(n * k for n, k in
                                            enumerate([2, 1, 2, 3, 6, 9, 18, 30], 1))
    for step in ("build", "save", "load"):
        assert timing[f"{step}_s"] > 0.0
        assert timing[f"{step}_us_per_point"] == pytest.approx(
            timing[f"{step}_s"] / timing["periodic_points"] * 1e6)
    assert os.listdir(tmp_path) == []
