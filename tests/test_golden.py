"""Byte-for-byte regression of ``polymer simulate`` against checked-in outputs.

Each ``golden/<name>.cfg`` runs through the CLI entry point and its
``results.csv`` must equal ``golden/<name>.csv`` exactly.  After a change
that is meant to move the numbers, regenerate the expected files with

    PYTHONPATH=src python tests/test_golden.py

which prints, for each file it overwrites, the largest relative change of
``value`` and ``std_error`` against the old file.
"""

import csv
import io
import tempfile
from pathlib import Path

import numpy as np
import pytest

from poissonpolymer import cli

GOLDEN = Path(__file__).parent / "golden"
CASES = ("quenched-d1", "annealed-d1", "dp-dbeta-d1", "dp-dnu-d1",
         "localization-d1", "localization-d2")


def simulate(name: str, out_dir) -> bytes:
    code = cli.main(["simulate", str(GOLDEN / f"{name}.cfg"), "--out", str(out_dir)])
    assert code == 0
    return (Path(out_dir) / "results.csv").read_bytes()


@pytest.mark.parametrize("name", CASES)
def test_results_csv_byte_identical(name, tmp_path):
    assert simulate(name, tmp_path) == (GOLDEN / f"{name}.csv").read_bytes()


def largest_relative_change(old: bytes, new: bytes, column: str) -> float:
    """max |new - old| / |old| of one column over the rows; equal values,
    NaN included, count as no change."""
    a, b = (np.array([float(row[column]) for row in csv.DictReader(io.StringIO(text.decode()))])
            for text in (old, new))
    if a.shape != b.shape:
        return float("nan")
    same = (a == b) | (np.isnan(a) & np.isnan(b))
    with np.errstate(divide="ignore", invalid="ignore"):
        return float(np.max(np.where(same, 0.0, np.abs(b - a) / np.abs(a)), initial=0.0))


if __name__ == "__main__":
    for case in CASES:
        path = GOLDEN / f"{case}.csv"
        old = path.read_bytes() if path.exists() else None
        with tempfile.TemporaryDirectory() as tmp:
            new = simulate(case, tmp)
        path.write_bytes(new)
        change = "" if old is None else ": largest relative change " + ", ".join(
            f"{column} {largest_relative_change(old, new, column):.2g}"
            for column in ("value", "std_error"))
        print(f"wrote {path}{change}")
