"""The benchmark's four workloads: configs, cell seeds and output checks.

A cell is one operation of a workload: every CLI mode the workload names,
run in turn with one cell seed through ``poissonpolymer.cli.main``.  The
problem shape of each workload is fixed; ``n_envs`` per cell is chosen so a
run of a few tens of seconds holds enough cells for a median and a tail.

Output checks come in two kinds.  Per-cell checks are exact (exit code,
every expected row present, finite values, overlaps in [0, 1]) and feed the
failed count.  The statistical checks use the tolerances of
``tests/test_acceptance.py`` and are applied once per run to the estimate
pooled over all cells of the run, which is one larger Monte Carlo estimate
over independent environments: a 3-SE check applied to each of hundreds of
cells would fail by chance on a correct program.
"""

from __future__ import annotations

import csv
import hashlib
import math
import statistics
from dataclasses import dataclass
from pathlib import Path

from poissonpolymer import cli

BETA = 0.5
NU = 1.0


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    modes: tuple[str, ...]
    d: int
    t: float
    n_steps: int
    paths_per_env: int
    n_envs: int          # environments per cell
    headline: str        # observable whose standard error sets time_to_se_s

    def config_text(self, mode: str) -> str:
        return (f"d = {self.d}\nbeta = {BETA}\nnu = {NU}\nt = {self.t}\n"
                f"n_steps = {self.n_steps}\npaths_per_env = {self.paths_per_env}\n"
                f"n_envs = {self.n_envs}\nmode = {mode}\nseed = 0\n")


WORKLOADS = {w.name: w for w in (
    Workload("quenched-d1",
             "path sampling and tube counts dominate and no occupancy field is "
             "built: the no-change side for field or environment-reuse work",
             ("quenched",), d=1, t=4.0, n_steps=256, paths_per_env=2000,
             n_envs=4, headline="quenched_free_energy"),
    Workload("derivatives-d1",
             "each replicate's environment is built 5 times and its field twice, "
             "with a coupled nu +- eps superposition",
             ("dp-dbeta", "dp-dnu"), d=1, t=2.0, n_steps=128,
             paths_per_env=2000, n_envs=2, headline="dp_dbeta_palm"),
    Workload("localization-d2",
             "the only d >= 2 ball-test kernels; the per-slab field intermediate "
             "(about 13 MB) exceeds the L2 cache",
             ("localization",), d=2, t=1.0, n_steps=64, paths_per_env=250,
             n_envs=1, headline="replica_overlap"),
    Workload("annealed-d1",
             "many tiny clouds and no path batch or field, so fixed "
             "per-environment overhead dominates",
             ("annealed",), d=1, t=4.0, n_steps=256, paths_per_env=1,
             n_envs=1000, headline="annealed_free_energy"),
)}

EXPECTED_ROWS = {
    "quenched": ("quenched_free_energy",),
    "annealed": ("annealed_free_energy",),
    "dp-dbeta": ("dp_dbeta_direct", "dp_dbeta_palm", "dp_dbeta_finite_difference"),
    "dp-dnu": ("dp_dnu_field", "dp_dnu_coupled_fd"),
    "localization": ("replica_overlap", "favourite_overlap", "delta_middle",
                     "delta_negligible", "delta_predominant"),
}


def cell_seed(seed: int, workload: str, index: int) -> int:
    """Master seed of cell ``index``, a pure function of the workload seed."""
    digest = hashlib.sha256(f"{seed}:{workload}:{index}".encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


def write_configs(workload: Workload, out_dir: Path) -> list[tuple[str, Path]]:
    """Write and validate one config file per mode; return (mode, path)."""
    out_dir.mkdir(parents=True, exist_ok=True)
    configs = []
    for mode in workload.modes:
        text = workload.config_text(mode)
        cli.build_run_plan(cli.parse_config_text(text), sweep=False)
        path = out_dir / f"{mode}.cfg"
        path.write_text(text)
        configs.append((mode, path))
    return configs


def setup(name: str, out_dir: str) -> None:
    """What a user pays before the first cell: the CLI imported (by this
    module) and the workload's configs built."""
    write_configs(WORKLOADS[name], Path(out_dir))


def read_rows(results_csv: Path) -> dict[str, float]:
    """Observable -> value from one results.csv."""
    with results_csv.open(newline="") as fh:
        return {row["observable"]: float(row["value"]) for row in csv.DictReader(fh)}


def check_cell(workload: Workload, rows: dict[str, float]) -> list[str]:
    """Exact checks on one cell's rows; returns the failures."""
    failures = []
    for mode in workload.modes:
        for obs in EXPECTED_ROWS[mode]:
            if obs not in rows:
                failures.append(f"row {obs} missing")
            elif not math.isfinite(rows[obs]):
                failures.append(f"{obs} = {rows[obs]} is not finite")
    if "localization" in workload.modes:
        for obs in ("replica_overlap", "favourite_overlap"):
            if obs in rows and not 0.0 <= rows[obs] <= 1.0:
                failures.append(f"{obs} = {rows[obs]} outside [0, 1]")
    return failures


def _pooled(values: list[float]) -> tuple[float, float]:
    """Mean over cells and its standard error from the spread across cells."""
    return statistics.fmean(values), statistics.stdev(values) / math.sqrt(len(values))


def pooled_checks(workload: Workload, cells: list[dict[str, float]]) -> list[dict]:
    """Acceptance-test tolerances applied to the run's pooled estimates."""
    col = {obs: [c[obs] for c in cells] for obs in cells[0]}
    target = NU * math.expm1(BETA)
    out = []

    def check(name, ok, detail):
        out.append({"check": name, "ok": bool(ok), "detail": detail})

    if workload.name == "annealed-d1":
        # Pool as one estimator over every environment of the run:
        # (1/t) ln of the mean of exp(beta H), each cell holding the mean of
        # n_envs of them as exp(t * value); delta-method standard error.
        means = [math.exp(workload.t * v) for v in col["annealed_free_energy"]]
        mean, se_mean = _pooled(means)
        value, se = math.log(mean) / workload.t, se_mean / mean / workload.t
        check("annealed identity", abs(value - target) <= 3 * se,
              f"|{value:.5f} - nu(e^beta-1) {target:.5f}| <= 3 SE ({3 * se:.5f})")
    elif workload.name == "quenched-d1":
        value, se = _pooled(col["quenched_free_energy"])
        lower = BETA * NU
        check("free-energy sandwich",
              lower - 3 * se <= value <= target + 3 * se,
              f"{lower} - 3 SE <= {value:.5f} <= {target:.5f} + 3 SE (SE {se:.5f})")
    elif workload.name == "derivatives-d1":
        direct, se_d = _pooled(col["dp_dbeta_direct"])
        palm, se_p = _pooled(col["dp_dbeta_palm"])
        fd, se_f = _pooled(col["dp_dbeta_finite_difference"])
        tol_palm = 3 * math.hypot(se_d, se_p) + 0.05 * NU * math.exp(BETA)
        tol_fd = 3 * math.hypot(se_d, se_f)
        check("direct vs palm", abs(direct - palm) <= tol_palm,
              f"|{direct:.5f} - {palm:.5f}| <= {tol_palm:.5f}")
        check("direct vs finite difference", abs(direct - fd) <= tol_fd,
              f"|{direct:.5f} - {fd:.5f}| <= {tol_fd:.5f}")
    return out
