"""Command-line front end: ``polymer analytic|simulate|sweep``.

Experiments are configured by a flat ``key = value`` text file with ``#``
comments.  Accepted keys (anything else is rejected):

    d, beta, nu, t, n_steps, paths_per_env, n_envs, bin_width, delta,
    seed, mode, grid.beta, grid.nu, grid.t

An absent key takes ``ExperimentConfig``'s default, except ``d = 1`` and
``t = 4``; ``beta`` and ``nu`` are required unless a ``grid.*`` key gives
them.  ``mode`` selects the experiment: quenched, annealed, localization,
dp-dbeta or dp-dnu.  ``grid.*`` keys hold comma-separated lists and are
only valid for ``sweep``; cells run in beta-major, then nu, then t order.
Couplings lie in [-BETA_LIMIT, BETA_LIMIT] for both ``simulate``/``sweep``
and ``analytic``.  Each experiment returns its estimates by observable
name, and each estimate is one output row.  Outputs are results.csv /
results.json / manifest.json; all numbers are written with 17 significant
digits and reruns with the same config and seed are byte-identical.

Exit codes: 0 success, 2 configuration or usage error, 3 runtime
invariant violation (reported with the offending seed and replicate).
"""

from __future__ import annotations

import argparse
import functools
import hashlib
import json
import math
import sys
import time
from itertools import product
from pathlib import Path

from . import __version__
from .analytics import (
    MAX_BESSEL_DIMENSION,
    CriticalPoint,
    annealed_gap_integrand,
    annealed_rate,
    bessel_zero,
    classify_phase,
    critical_beta_bounds,
    critical_curve_exponent,
    critical_intensity_lower_bound,
    critical_intensity_ratio,
    curve_kernel,
    drift_gap_integrand,
    in_l2_region,
)
from .errors import InvalidParameterError, InvariantViolationError
from .estimators import (
    BETA_LIMIT,
    ExperimentConfig,
    annealed_free_energy,
    dp_dbeta,
    dp_dnu,
    localization_scan,
    quenched_free_energy,
)

# number keys -> (ExperimentConfig field, type); an absent key takes the field's default
NUMBER_KEYS = {
    "d": ("d", int), "beta": ("beta", float), "nu": ("nu", float), "t": ("t", float),
    "n_steps": ("n_steps", int), "paths_per_env": ("n_paths", int), "n_envs": ("n_envs", int),
    "bin_width": ("bin_width", float), "delta": ("delta", float), "seed": ("seed", int),
}
CONFIG_KEYS = {*NUMBER_KEYS, "mode", "grid.beta", "grid.nu", "grid.t"}
MODES = ("quenched", "annealed", "localization", "dp-dbeta", "dp-dnu")
CSV_HEADER = "mode,d,beta,nu,t,n_steps,M,K,h,value,std_error,ess_min,observable"

STREAM_RULE = ("k1=splitmix64(seed); k2=splitmix64(k1 xor fnv1a64(tag)); "
               "k3=splitmix64(k2 xor index); philox4x64 key="
               "(k3, splitmix64(k3 xor 0x9E3779B97F4A7C15))")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def _row(values) -> str:
    """One CSV line: strings as they are, numbers through ``_fmt``."""
    return ",".join(v if isinstance(v, str) else _fmt(v) for v in values)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; unknown or duplicate keys are rejected."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise InvalidParameterError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise InvalidParameterError(f"unknown config key '{key}'")
        if key in raw:
            raise InvalidParameterError(f"duplicate config key '{key}'")
        raw[key] = value
    return raw


def _parse_number(raw: dict, key: str, cast):
    try:
        return cast(raw[key])
    except ValueError as exc:
        raise InvalidParameterError(f"invalid value for key '{key}': {raw[key]!r}") from exc


def _parse_list(raw: dict, key: str) -> list[float]:
    values = _parse_number(raw, key, lambda text: [float(v) for v in text.split(",") if v.strip()])
    if not values:
        raise InvalidParameterError(f"empty grid for key '{key}'")
    return values


def build_run_plan(raw: dict, sweep: bool,
                   seed_override: int | None = None) -> tuple[str, list[ExperimentConfig]]:
    """``(mode, cells)``, beta-major, then nu, then t; path stacks checked before any runs."""
    mode = raw.get("mode", "quenched")
    if mode not in MODES:
        raise InvalidParameterError(
            f"invalid value for key 'mode': {mode!r} (choose from {MODES})")
    grids = {k: _parse_list(raw, f"grid.{k}") for k in ("beta", "nu", "t") if f"grid.{k}" in raw}
    if grids and not sweep:
        raise InvalidParameterError("grid.* keys are only valid for the sweep command")
    base = {"d": 1, "t": 4.0}  # the format's own defaults; the rest are ExperimentConfig's
    for key, (name, cast) in NUMBER_KEYS.items():
        if key in raw and key in grids:
            raise InvalidParameterError(f"config keys '{key}' and 'grid.{key}' exclude each other")
        if key in raw:
            base[name] = _parse_number(raw, key, cast)
        elif key in ("beta", "nu") and key not in grids:
            raise InvalidParameterError(f"missing required config key '{key}'")
    if seed_override is not None:
        base["seed"] = seed_override
    axes = [grids.get(key) or [base[key]] for key in ("beta", "nu", "t")]
    cells = [ExperimentConfig(**dict(base, beta=beta, nu=nu, t=t))
             for beta, nu, t in product(*axes)]
    for cfg in cells if mode != "annealed" else ():  # only it samples no paths
        cfg.check_path_budget()
    return mode, cells


def _none_if_nan(v: float) -> float | None:
    """JSON has no NaN: an undefined number (one replicate's SE, no ESS) is written as null."""
    return None if math.isnan(v) else v


def _run_cell(mode: str, cfg: ExperimentConfig) -> list[dict]:
    """One parameter cell -> one row per estimate the mode's experiment returns.

    The experiments are looked up when the cell runs, so a replacement bound
    in this module's namespace is the one called.
    """
    experiments = {"quenched": quenched_free_energy, "annealed": annealed_free_energy,
                   "localization": localization_scan, "dp-dbeta": dp_dbeta, "dp-dnu": dp_dnu}
    return [{
        "mode": mode, "d": cfg.d, "beta": cfg.beta, "nu": cfg.nu, "t": cfg.t,
        "n_steps": cfg.n_steps, "M": cfg.n_paths, "K": cfg.n_envs,
        "h": cfg.bin_width, "value": est.value, "std_error": est.std_error,
        "ess_min": est.diagnostics.get("ess_min", math.nan), "observable": observable,
        "diagnostics": {key: _none_if_nan(v) for key, v in est.diagnostics.items()},
    } for observable, est in experiments[mode](cfg).items()]


def _write_outputs(out_dir: Path, rows: list[dict], config_text: str, mode: str,
                   master_seed: int, timings: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    config_sha = hashlib.sha256(config_text.encode()).hexdigest()

    # d, n_steps (at most 2^53), M and K are integers; _fmt prints them exactly up to 2^53
    csv_lines = [CSV_HEADER, *(_row(r[key] for key in CSV_HEADER.split(",")) for r in rows)]
    (out_dir / "results.csv").write_text("\n".join(csv_lines) + "\n")

    json_rows = [dict(r, ess_min=_none_if_nan(r["ess_min"]),
                      std_error=_none_if_nan(r["std_error"]), config_sha256=config_sha)
                 for r in rows]
    (out_dir / "results.json").write_text(
        json.dumps(json_rows, indent=2, sort_keys=True) + "\n")

    manifest = {
        "library_version": __version__,
        "generator": "philox4x64-10",
        "stream_rule": STREAM_RULE,
        "config_text": config_text,
        "config_sha256": config_sha,
        "master_seed": master_seed,
        "mode": mode,
        "timings_seconds": timings,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_config_text(args) -> tuple[str, int | None]:
    """The config text and the seed overriding its own: ``--seed``, else on
    replay the manifest's ``master_seed``, so that the replay is the run."""
    path = args.from_manifest or args.config
    if path is None or (args.from_manifest and args.config):
        raise InvalidParameterError("exactly one of a config file and --from-manifest is required")
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise InvalidParameterError(f"{path} is not UTF-8 text") from exc
    if not args.from_manifest:
        return text, args.seed
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError:
        manifest = None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config_text"), str):
        raise InvalidParameterError(f"manifest {path} is not a JSON object "
                                    "with a string key 'config_text'")
    if type(manifest.get("master_seed")) is not int:
        raise InvalidParameterError(f"manifest {path} has no integer key 'master_seed'")
    return manifest["config_text"], manifest["master_seed"] if args.seed is None else args.seed


def _cmd_experiment(args, sweep: bool) -> int:
    config_text, seed = _load_config_text(args)
    mode, cells = build_run_plan(parse_config_text(config_text), sweep=sweep,
                                 seed_override=seed)
    rows = []
    timings = {}
    start = time.perf_counter()
    for idx, cfg in enumerate(cells):
        cell_start = time.perf_counter()
        rows.extend(_run_cell(mode, cfg))
        timings[f"cell_{idx}"] = time.perf_counter() - cell_start
    timings["total"] = time.perf_counter() - start
    _write_outputs(Path(args.out), rows, config_text, mode, cells[0].seed, timings)
    return 0


def _finite_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"not a number: {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"not a finite number: {text!r}")
    return value


def _coupling(text: str) -> float:
    value = _finite_float(text)
    if abs(value) > BETA_LIMIT:
        raise argparse.ArgumentTypeError(
            f"coupling must lie in [-{BETA_LIMIT:g}, {BETA_LIMIT:g}], got {text!r}")
    return value


def _linspace(parse):
    """Argument type for 'start,stop,count' grids whose ends ``parse`` checks."""
    def grid(text: str) -> list[float]:
        parts = text.split(",")
        if len(parts) != 3:
            raise argparse.ArgumentTypeError("grid must be 'start,stop,count'")
        start, stop, count = parse(parts[0]), parse(parts[1]), int(parts[2])
        if not 1 <= count <= 10 ** 6:  # refused before any grid point is built
            raise argparse.ArgumentTypeError(f"grid count must lie in [1, 1e6], got {count}")
        return [start + (stop - start) * i / max(1, count - 1) for i in range(count)]
    return grid


def _dimension(text: str) -> int:
    """Type of ``bessel --d``: the library's bound, checked before argparse accepts the flag."""
    if not text.isdecimal() or not 1 <= int(text) <= MAX_BESSEL_DIMENSION:
        raise argparse.ArgumentTypeError(
            f"dimension must be an integer in [1, {MAX_BESSEL_DIMENSION}], got {text!r}")
    return int(text)


def _cmd_analytic(args) -> int:
    form = args.closed_form
    if form in ("lambda", "alpha"):
        of_beta = annealed_rate if form == "lambda" else critical_curve_exponent
        header = f"beta,{form}"
        rows = [(b, of_beta(b)) for b in args.grid or [args.beta]]
    elif form == "h-alpha":
        header = "alpha,u,h_alpha"
        rows = [(args.alpha, u, curve_kernel(args.alpha, u)) for u in args.u_grid or [args.u]]
    elif form == "psi-phi":
        header = "beta,u,psi,phi"
        rows = [(args.beta, u, drift_gap_integrand(args.beta, u),
                 annealed_gap_integrand(args.beta, u)) for u in args.u_grid or [args.u]]
    elif form in ("bc-bounds", "classify"):
        crit = CriticalPoint(beta0=args.beta0, nu0=args.nu0, sign=args.branch)
        point = (args.branch, args.beta0, args.nu0, args.alpha)
        if form == "bc-bounds":
            bounds = critical_beta_bounds(args.nu, crit, args.alpha)
            header = "branch,beta0,nu0,alpha,nu,case,lower,upper"
            rows = [(*point, args.nu, bounds.case, bounds.lower, bounds.upper)]
        else:
            header = "branch,beta0,nu0,alpha,beta,nu,phase"
            rows = [(*point, args.beta, args.nu,
                     classify_phase(args.beta, args.nu, crit, args.alpha).value)]
    elif form == "bessel":
        header = "d,gamma,ratio,ratio_squared"
        rows = [(args.d, bessel_zero(args.d), critical_intensity_ratio(args.d),
                 critical_intensity_lower_bound(args.d))]
    else:  # l2
        header = "beta,nu,a_l2,in_l2_region"
        rows = [(args.beta, args.nu, args.a_l2,
                 str(in_l2_region(args.beta, args.nu, args.a_l2)).lower())]
    sys.stdout.write("\n".join([header, *map(_row, rows)]) + "\n")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The ``polymer`` parser, built on the first call and shared after it.

    ``parse_args`` keeps no state between calls, so a process that runs
    ``main`` many times builds the tree once and makes none of its cyclic
    garbage per call.  Callers must not change the shared parser.
    """
    parser = argparse.ArgumentParser(
        prog="polymer",
        description="Brownian polymer in a Poissonian medium: closed forms and"
                    " Monte Carlo experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    analytic = sub.add_parser("analytic", help="evaluate a closed form")
    forms = analytic.add_subparsers(dest="closed_form", required=True)

    for name, help_text in (("lambda", "annealed rate e^beta - 1"),
                            ("alpha", "critical-curve exponent")):
        form = forms.add_parser(name, help=help_text)
        form.add_argument("--beta", type=_coupling, default=0.0)
        form.add_argument("--grid", type=_linspace(_coupling), default=None,
                          metavar="START,STOP,N")

    p_h = forms.add_parser("h-alpha", help="curve monotonicity kernel")
    p_h.add_argument("--alpha", type=_finite_float, required=True)
    p_pp = forms.add_parser("psi-phi", help="derivative-gap integrands")
    p_pp.add_argument("--beta", type=_coupling, required=True)
    for form in (p_h, p_pp):
        form.add_argument("--u", type=_finite_float, default=0.0)
        form.add_argument("--u-grid", type=_linspace(_finite_float), default=None,
                          metavar="START,STOP,N")

    p_bc = forms.add_parser("bc-bounds", help="critical coupling sandwich")
    p_cl = forms.add_parser("classify", help="phase of a (beta, nu) query")
    for form in (p_bc, p_cl):
        form.add_argument("--branch", choices=("plus", "minus"), required=True)
        form.add_argument("--beta0", type=_coupling, required=True)
        form.add_argument("--nu0", type=_finite_float, required=True)
        form.add_argument("--alpha", type=_finite_float, required=True)
        form.add_argument("--nu", type=_finite_float, required=True)
    p_cl.add_argument("--beta", type=_coupling, required=True)

    p_bessel = forms.add_parser("bessel", help="critical-intensity bound table")
    p_bessel.add_argument("--d", type=_dimension, required=True)

    p_l2 = forms.add_parser("l2", help="second-moment region test")
    p_l2.add_argument("--beta", type=_coupling, required=True)
    p_l2.add_argument("--nu", type=_finite_float, required=True)
    p_l2.add_argument("--a-l2", type=_finite_float, required=True)

    for name, help_text in (("simulate", "run one experiment cell"),
                            ("sweep", "run a parameter grid")):
        cmd = sub.add_parser(name, help=help_text)
        cmd.add_argument("config", nargs="?", default=None,
                         help="flat key=value config file")
        cmd.add_argument("--out", default="out", help="output directory")
        cmd.add_argument("--seed", type=int, default=None,
                         help="override the config seed")
        cmd.add_argument("--from-manifest", default=None,
                         help="rerun the config embedded in a manifest.json")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        if args.command == "analytic":
            return _cmd_analytic(args)
        return _cmd_experiment(args, sweep=args.command == "sweep")
    except (InvariantViolationError, InvalidParameterError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3 if isinstance(exc, InvariantViolationError) else 2


if __name__ == "__main__":
    sys.exit(main())
