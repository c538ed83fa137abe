"""Byte-for-byte regression of the CLI against checked-in outputs.

Each ``golden/<name>.cfg`` runs through ``polymer simulate``; its
``results.csv`` must equal ``golden/<name>.csv`` and its ``results.json``,
every row's diagnostics included, ``golden/<name>.json`` exactly.  The stdout of the
``ANALYTIC`` invocations of ``polymer analytic``, each after a line naming
it, must equal ``golden/analytic.txt``.  After a change that is meant to
move the numbers, regenerate the expected files with

    PYTHONPATH=src python tests/test_golden.py

which prints, for each file it overwrites, the largest relative change of
``value`` and ``std_error`` against the old file.
"""

import contextlib
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
# every closed form, both tilt forms of psi-phi, every sandwich case and phase
ANALYTIC = (
    "lambda --grid=-2,2,9", "lambda --beta 0.5",
    "alpha --grid=-2,2,9", "alpha --beta 0.5",
    "h-alpha --alpha 1.5 --u-grid=-0.5,2,6",
    "psi-phi --beta 0.5 --u-grid=0,1,5", "psi-phi --beta -1 --u-grid=0,1,5",
    "bc-bounds --branch plus --beta0 0.6931 --nu0 1 --alpha 1 --nu 100",
    "bc-bounds --branch plus --beta0 1 --nu0 1 --alpha 1.5 --nu 0.1",
    "bc-bounds --branch minus --beta0 -1 --nu0 1 --alpha 3 --nu 10",
    "bc-bounds --branch minus --beta0 -0.5 --nu0 1 --alpha 3 --nu 0.7",
    "classify --branch plus --beta0 0.8 --nu0 1 --alpha 1 --beta 0.8 --nu 1",
    "classify --branch plus --beta0 0.8 --nu0 1 --alpha 1 --beta 1 --nu 2",
    "classify --branch plus --beta0 0.8 --nu0 1 --alpha 1 --beta 1 --nu 0.6",
    "bessel --d 1", "bessel --d 2", "bessel --d 3", "bessel --d 5",
    "l2 --beta 0 --nu 5 --a-l2 1.6", "l2 --beta 1 --nu 5 --a-l2 1.6",
)


def simulate(name: str, out_dir) -> tuple[bytes, bytes]:
    """The ``results.csv`` and ``results.json`` bytes of one golden config."""
    code = cli.main(["simulate", str(GOLDEN / f"{name}.cfg"), "--out", str(out_dir)])
    assert code == 0
    return tuple((Path(out_dir) / f"results.{ext}").read_bytes() for ext in ("csv", "json"))


@pytest.mark.parametrize("name", CASES)
def test_results_csv_byte_identical(name, tmp_path):
    csv_bytes, json_bytes = simulate(name, tmp_path)
    assert csv_bytes == (GOLDEN / f"{name}.csv").read_bytes()
    assert json_bytes == (GOLDEN / f"{name}.json").read_bytes()


def analytic_transcript() -> bytes:
    out = io.StringIO()
    for args in ANALYTIC:
        out.write(f"$ polymer analytic {args}\n")
        with contextlib.redirect_stdout(out):
            assert cli.main(["analytic", *args.split()]) == 0
    return out.getvalue().encode()


def test_analytic_stdout_byte_identical():
    assert analytic_transcript() == (GOLDEN / "analytic.txt").read_bytes()


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
            new, new_json = simulate(case, tmp)
        path.write_bytes(new)
        path.with_suffix(".json").write_bytes(new_json)
        change = "" if old is None else ": largest relative change " + ", ".join(
            f"{column} {largest_relative_change(old, new, column):.2g}"
            for column in ("value", "std_error"))
        print(f"wrote {path}{change} and {path.with_suffix('.json').name}")
    (GOLDEN / "analytic.txt").write_bytes(analytic_transcript())
    print(f"wrote {GOLDEN / 'analytic.txt'}")
