"""Repository benchmark: four Monte Carlo workloads run through the CLI.

Usage, from the root of a checkout:

    python3 bench/run.py --workload quenched-d1 --seed 1 --seconds 25 --trace 0
    python3 bench/run.py --workload all --seed 1

Each workload runs in its own process.  An operation is one cell: the
workload's CLI modes run in turn with one cell seed through
``poissonpolymer.cli.main(["simulate", ...])`` in-process, including config
parsing and writing results.csv/json and manifest.json.  Cell seeds derive
from ``--seed``; cells run back to back (a closed loop with one caller)
until ``--seconds`` have passed and at least 20 cells have run.  The first
cell is run once untimed before the timed loop starts with it again, and
the two must write byte-identical results.csv files.

``--trace 0`` prints the end-to-end metrics: setup_s, cell_s_p50,
cell_s_tail (with its percentile and sample count), envs_per_s,
time_to_se_s, peak_rss_mb and failed_frac.  The last line of output is one
JSON object with the metrics that BENCHMARK.json gates: setup_s,
cell_s_tail and peak_rss_mb.  The others are printed and recorded but not
gated.  On a host whose speed alternates between fast and slow phases
lasting seconds to minutes, the median and the mean-based envs_per_s fall
between the two modes and moved by 15-35% between runs, while the tail
reads the slow mode in every run and moved by 11-15%.  time_to_se_s needs
a variance estimate over far more environments than a run of
derivatives-d1 or localization-d2 holds, and failed_frac reads 0 on a
correct program (``failed``/``attempted`` in the JSON carry it).  setup_s
is the median of several fresh interpreters spread over the run.

``--trace 1`` alternates untraced and traced cells and prints per-layer
metrics from the traced ones, taken by ``tracing.Tracer`` around the public
functions the program calls, plus ``trace_overhead_frac``.  Counts and self
times are per cell; bytes and ratios are means per call; min_slack is the
minimum over calls and ess_min the median over CLI calls of their smallest
effective sample size.  A layer that does not run on a workload reports 0
for each of its metrics.

Each run writes ``bench/out/<workload>-seed<n>-trace<k>.json`` with the
metrics, checks, cell times and the machine record (CPU, caches, library
versions, thread caps, git commit), and traced runs write their spans to
``bench/out/spans-<workload>-seed<n>.jsonl``.

Held-out seed: 7919.  It was not used while the benchmark was tuned; a
later performance claim must also hold on it.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
SRC = ROOT / "src"
OUT = BENCH / "out"
NPROC = len(os.sched_getaffinity(0))
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
WORKLOAD_NAMES = ("quenched-d1", "derivatives-d1", "localization-d2", "annealed-d1")
MIN_CELLS = 20          # so the tail (ten samples beyond it) is at least p50
SETUP_REPEATS = 7
SE_TARGET = 0.01
GATED = ("setup_s", "cell_s_tail", "peak_rss_mb")
UNITS = {"setup_s": "s", "cell_s_p50": "s", "cell_s_tail": "s", "envs_per_s": "1/s",
         "time_to_se_s": "s", "peak_rss_mb": "MB", "failed_frac": "frac"}
PER_LAYER_UNITS = {
    "polymer.sample_paths.calls": "count",
    "polymer.sample_paths.self_s": "s",
    "polymer.sample_paths.bytes": "B",
    "polymer.build_ensemble.self_s": "s",
    "environment.batch_tube_counts.self_s": "s",
    "environment.batch_tube_counts.ball_tests": "count",
    "environment.batch_tube_counts.hit_ratio": "ratio",
    "polymer.occupancy_field.calls": "count",
    "polymer.occupancy_field.self_s": "s",
    "polymer.occupancy_field.ball_tests": "count",
    "polymer.occupancy_field.useful_ratio": "ratio",
    "polymer.occupancy_field.field_bytes": "B",
    "polymer.occupancy_field.slab_bytes": "B",
    "polymer.assert_two_to_one.self_s": "s",
    "polymer.assert_two_to_one.min_slack": "1",
    "polymer.reductions.self_s": "s",
    "estimators.self_s": "s",
    "estimators.envs_built_per_replicate": "count",
    "estimators.ess_min": "paths",
    "streams.substream.calls": "count",
    "streams.substream.self_s": "s",
    "environment.sample_poisson.calls": "count",
    "environment.sample_poisson.self_s": "s",
    "environment.sample_poisson.points": "count",
    "environment.count_in_tube.calls": "count",
    "environment.count_in_tube.self_s": "s",
    "environment.superpose.self_s": "s",
    "cli.self_s": "s",
    "trace_overhead_frac": "ratio",
}
REDUCTIONS = ("polymer.replica_overlap", "polymer.favourite_path",
              "polymer.favourite_overlap", "polymer.delta_sets")


def cap_threads() -> None:
    """Cap BLAS/OpenMP threads at nproc; must run before numpy loads."""
    for var in THREAD_VARS:
        try:
            wanted = int(os.environ.get(var, NPROC))
        except ValueError:
            wanted = NPROC
        os.environ[var] = str(min(max(wanted, 1), NPROC))


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def machine_record() -> dict:
    import numpy
    import scipy

    cpu_model = None
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = []
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        caches.append({key: _read(index / key) for key in ("level", "type", "size")})
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    return {"nproc": NPROC, "cpu_model": cpu_model, "caches_per_cpu0": caches,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "thread_caps": {var: os.environ[var] for var in THREAD_VARS},
            "git_commit": commit}


def measure_setup(name: str, work: Path) -> float:
    """Fresh interpreter -> poissonpolymer.cli imported and configs built.

    The child prints its CLOCK_MONOTONIC reading when done, which on Linux
    is one clock for all processes; waiting for the child's exit instead
    would add interpreter teardown and the 50 ms polling steps of
    ``subprocess.run(timeout=...)``.
    """
    code = ("import sys; sys.path[:0] = sys.argv[1:3]; import workloads; "
            "workloads.setup(sys.argv[3], sys.argv[4]); import time; "
            "print(time.clock_gettime(time.CLOCK_MONOTONIC))")
    start = time.clock_gettime(time.CLOCK_MONOTONIC)
    proc = subprocess.run([sys.executable, "-c", code, str(SRC), str(BENCH), name,
                           str(work / "setup")],
                          check=True, timeout=120, capture_output=True, text=True)
    return float(proc.stdout.split()[-1]) - start


class CellRunner:
    """Runs cells of one workload and checks each one's outputs."""

    def __init__(self, workload, configs, work: Path):
        from poissonpolymer import cli
        import workloads

        self.cli = cli
        self.wl = workloads
        self.workload = workload
        self.configs = configs
        self.out = work / "cell"
        self.failures: list[str] = []
        self.attempted = 0
        self.rows: list[dict] = []

    def run(self, seed: int, main=None, keep_rows=True) -> tuple[float, list[bytes]]:
        """One cell; returns its wall time and its results.csv contents.
        ``keep_rows`` adds the cell's rows to the pooled checks."""
        main = main or self.cli.main
        csvs = [self.out / mode / "results.csv" for mode, _ in self.configs]
        for path in csvs:
            path.unlink(missing_ok=True)
        codes = []
        start = time.perf_counter()
        for mode, cfg in self.configs:
            argv = ["simulate", str(cfg), "--out", str(self.out / mode), "--seed", str(seed)]
            try:
                codes.append(main(argv))
            except Exception as exc:  # a traceback counts as a failed cell
                print(f"cell seed {seed}: {type(exc).__name__}: {exc}", file=sys.stderr)
                codes.append(1)
        elapsed = time.perf_counter() - start
        self.attempted += 1
        if any(codes):
            self.failures.append(f"seed {seed}: exit codes {codes}")
            return elapsed, []
        rows = {}
        for path in csvs:
            rows.update(self.wl.read_rows(path))
        problems = self.wl.check_cell(self.workload, rows)
        if problems:
            self.failures.append(f"seed {seed}: " + "; ".join(problems))
        elif keep_rows:
            self.rows.append(rows)
        return elapsed, [path.read_bytes() for path in csvs]


def run_cells(runner, seeds, seconds, traced_main=None, setup=None):
    """Warm-up plus the timed closed loop.

    With ``traced_main``, odd cells go through it.  With ``setup``, it runs
    SETUP_REPEATS times spread evenly over the loop, off the loop's clock,
    so its median sees the same machine as the cells do.  Returns
    (untraced times, traced times, setup times).
    """
    _, reference = runner.run(seeds(0), keep_rows=False)
    plain, traced, setup_times = [], [], []
    start = time.perf_counter()
    paused = 0.0
    i = 0
    while i < MIN_CELLS or time.perf_counter() - start - paused < seconds:
        due = len(setup_times) * seconds / SETUP_REPEATS
        if setup is not None and len(setup_times) < SETUP_REPEATS \
                and time.perf_counter() - start - paused >= due:
            pause = time.perf_counter()
            setup_times.append(setup())
            paused += time.perf_counter() - pause
        use_trace = traced_main is not None and i % 2 == 1
        elapsed, csvs = runner.run(seeds(i), traced_main if use_trace else None)
        (traced if use_trace else plain).append(elapsed)
        if i == 0 and csvs != reference:
            runner.failures.append(f"seed {seeds(0)}: rerun results.csv differs")
        i += 1
    while setup is not None and len(setup_times) < SETUP_REPEATS:
        setup_times.append(setup())
    return plain, traced, setup_times


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least ten samples beyond it: (value, pct)."""
    ordered = sorted(times)
    rank = len(ordered) - 10
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def end_to_end(workload, runner, times, setup_times) -> dict:
    value, pct = tail(times)
    p50 = statistics.median(times)
    headline = [rows[workload.headline] for rows in runner.rows]
    se = statistics.stdev(headline) if len(headline) > 1 else float("nan")
    return {
        "setup_s": statistics.median(setup_times),
        "cell_s_p50": p50,
        "cell_s_tail": value,
        "cell_s_tail_percentile": pct,
        "cells": len(times),
        "envs_per_s": workload.n_envs * len(times) / sum(times),
        "time_to_se_s": p50 * (se / SE_TARGET) ** 2,
        "headline_se": se,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "failed_frac": len(runner.failures) / runner.attempted,
    }


def per_layer(tracer, plain, traced) -> dict:
    import tracing

    totals = tracing.layer_totals(tracer.spans)
    n = len(traced)
    empty = {"calls": 0, "self_s": 0.0, "counts": []}

    def get(name):
        return totals.get(name, empty)

    def counts(name, key):
        return [c[key] for c in get(name)["counts"]]

    def mean(xs):
        return statistics.fmean(xs) if xs else 0.0

    out = {}
    for name in ("polymer.sample_paths", "polymer.occupancy_field", "streams.substream",
                 "environment.sample_poisson", "environment.count_in_tube"):
        out[f"{name}.calls"] = get(name)["calls"] / n
    for name in ("polymer.sample_paths", "polymer.build_ensemble",
                 "environment.batch_tube_counts", "polymer.occupancy_field",
                 "polymer.assert_two_to_one", "streams.substream",
                 "environment.sample_poisson", "environment.count_in_tube",
                 "environment.superpose", "cli.main"):
        out[f"{name}.self_s"] = get(name)["self_s"] / n
    out["cli.self_s"] = out.pop("cli.main.self_s")
    out["polymer.sample_paths.bytes"] = mean(counts("polymer.sample_paths", "bytes"))
    tests = sum(counts("environment.batch_tube_counts", "ball_tests"))
    out["environment.batch_tube_counts.ball_tests"] = tests / n
    out["environment.batch_tube_counts.hit_ratio"] = (
        sum(counts("environment.batch_tube_counts", "hits")) / tests if tests else 0.0)
    out["polymer.occupancy_field.ball_tests"] = \
        sum(counts("polymer.occupancy_field", "ball_tests")) / n
    for key in ("useful_ratio", "field_bytes", "slab_bytes"):
        out[f"polymer.occupancy_field.{key}"] = mean(counts("polymer.occupancy_field", key))
    slacks = counts("polymer.assert_two_to_one", "min_slack")
    out["polymer.assert_two_to_one.min_slack"] = min(slacks) if slacks else 0.0
    out["polymer.reductions.self_s"] = sum(get(r)["self_s"] for r in REDUCTIONS) / n
    estimator_spans = [f"estimators.{a}" for a in tracing.TRACED["poissonpolymer.cli"]]
    out["estimators.self_s"] = sum(get(e)["self_s"] for e in estimator_spans) / n
    clouds = [tuple(c["replicate"]) for c in get("streams.substream")["counts"]
              if c["tag"] == "cloud"]
    out["estimators.envs_built_per_replicate"] = \
        len(clouds) / len(set(clouds)) if clouds else 0.0
    per_call = []  # ESS of each ensemble, grouped by CLI call (root span)
    for name, _, _, parent, c in tracer.spans:
        if parent == -1:
            per_call.append([])
        elif name == "polymer.build_ensemble" and c is not None:
            per_call[-1].append(c["ess"])
    ess = [min(call) for call in per_call if call]
    out["estimators.ess_min"] = statistics.median(ess) if ess else 0.0
    out["environment.sample_poisson.points"] = \
        mean(counts("environment.sample_poisson", "points"))
    out["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1
    return {name: out[name] for name in PER_LAYER_UNITS}


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    import tracing
    import workloads

    workload = workloads.WORKLOADS[name]
    OUT.mkdir(parents=True, exist_ok=True)
    work = OUT / f"cells-{name}-{os.getpid()}"
    try:
        runner = CellRunner(workload, workloads.write_configs(workload, work), work)
        seeds = lambda i: workloads.cell_seed(seed, name, i)  # noqa: E731
        if trace:
            tracer = tracing.Tracer()

            def traced_main(argv):
                with tracer:
                    return tracer.wrap("cli.main", runner.cli.main)(argv)

            plain, traced, setup_times = run_cells(runner, seeds, seconds, traced_main)
            metrics = per_layer(tracer, plain, traced)
            tracer.write(OUT / f"spans-{name}-seed{seed}.jsonl")
            if tracer.missing:
                print(f"not traced (absent): {', '.join(tracer.missing)}", file=sys.stderr)
            units = PER_LAYER_UNITS
        else:
            plain, _, setup_times = run_cells(
                runner, seeds, seconds, setup=lambda: measure_setup(name, work))
            metrics = end_to_end(workload, runner, plain, setup_times)
            units = UNITS
    finally:
        shutil.rmtree(work, ignore_errors=True)

    checks = workloads.pooled_checks(workload, runner.rows) if len(runner.rows) > 1 else []
    correct = not runner.failures and all(c["ok"] for c in checks)
    record = {"workload": name, "seed": seed, "seconds": seconds, "trace": int(trace),
              "correct": correct, "attempted": runner.attempted,
              "failed": len(runner.failures), "failures": runner.failures,
              "checks": checks, "metrics": metrics, "setup_times": setup_times,
              "cell_times": plain, "machine": machine_record()}
    (OUT / f"{name}-seed{seed}-trace{int(trace)}.json").write_text(
        json.dumps(record, indent=2) + "\n")

    print(f"workload {name}  seed {seed}  cells {runner.attempted} "
          f"(n_envs {workload.n_envs} each)")
    for key, value in metrics.items():
        unit = units.get(key)
        if unit is not None:
            note = ""
            if key == "cell_s_tail":
                note = (f"  (p{metrics['cell_s_tail_percentile']:.1f} of "
                        f"{metrics['cells']} cells)")
            elif key == "time_to_se_s":
                note = f"  (SE {metrics['headline_se']:.5g} of {workload.headline})"
            elif key == "polymer.occupancy_field.slab_bytes":
                note = "  (cpu0 caches: " + ", ".join(
                    f"L{c['level']} {c['type']} {c['size']}"
                    for c in record["machine"]["caches_per_cpu0"]) + ")"
            print(f"  {key:42s} {value:.6g} {unit}{note}")
    for check in checks:
        print(f"  check {check['check']}: {'ok' if check['ok'] else 'FAIL'}  {check['detail']}")
    for failure in runner.failures:
        print(f"  failed cell {failure}")
    gated = GATED if not trace else tuple(PER_LAYER_UNITS)
    return {"correct": correct, "attempted": runner.attempted,
            "failed": len(runner.failures),
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in gated}}


def run_all(args) -> dict:
    """Each workload in its own process; returns the combined result."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "workloads": {}}
    for name in WORKLOAD_NAMES:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            raise SystemExit(f"workload {name} exited {proc.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        combined["workloads"][name] = result["metrics"]
    return combined


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", default="all", choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=25.0)
    parser.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = parser.parse_args(argv)
    if not (SRC / "poissonpolymer" / "cli.py").is_file():
        print(f"error: no program source at {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    cap_threads()
    if args.workload == "all":
        result = run_all(args)
    else:
        sys.path[:0] = [str(SRC), str(BENCH)]
        result = run_workload(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
