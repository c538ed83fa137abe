"""Byte-for-byte regression of ``polymer simulate`` against checked-in outputs.

Each ``golden/<name>.cfg`` runs through the CLI entry point and its
``results.csv`` must equal ``golden/<name>.csv`` exactly.  After a change
that is meant to move the numbers, regenerate the expected files with

    PYTHONPATH=src python tests/test_golden.py
"""

import tempfile
from pathlib import Path

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


if __name__ == "__main__":
    for case in CASES:
        with tempfile.TemporaryDirectory() as tmp:
            (GOLDEN / f"{case}.csv").write_bytes(simulate(case, tmp))
        print(f"wrote {GOLDEN / case}.csv")
