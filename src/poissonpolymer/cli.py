"""Command-line front end: ``polymer analytic|simulate|sweep``.

Experiments are configured by a flat ``key = value`` text file with ``#``
comments.  Accepted keys (anything else is rejected):

    d, beta, nu, t, n_steps, paths_per_env, n_envs, bin_width, delta,
    seed, mode, grid.beta, grid.nu, grid.t

``mode`` selects the experiment: quenched, annealed, localization,
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
import hashlib
import json
import math
import sys
import time
from dataclasses import dataclass
from itertools import product
from pathlib import Path

from . import __version__
from .analytics import (
    BetaCriticalBounds,
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
from .errors import (ConfigError, HypothesisError, InvalidParameterError,
                     InvalidQueryError, InvariantViolationError)
from .estimators import (
    BETA_LIMIT,
    ExperimentConfig,
    annealed_free_energy,
    dp_dbeta,
    dp_dnu,
    localization_scan,
    quenched_free_energy,
)

CONFIG_KEYS = {
    "d", "beta", "nu", "t", "n_steps", "paths_per_env", "n_envs",
    "bin_width", "delta", "seed", "mode", "grid.beta", "grid.nu", "grid.t",
}
MODES = ("quenched", "annealed", "localization", "dp-dbeta", "dp-dnu")
CSV_HEADER = "mode,d,beta,nu,t,n_steps,M,K,h,value,std_error,ess_min,observable"

STREAM_RULE = ("k1=splitmix64(seed); k2=splitmix64(k1 xor fnv1a64(tag)); "
               "k3=splitmix64(k2 xor index); philox4x64 key="
               "(k3, splitmix64(k3 xor 0x9E3779B97F4A7C15))")


def _fmt(x) -> str:
    return format(float(x), ".17g")


def parse_config_text(text: str) -> dict[str, str]:
    """Parse ``key = value`` lines; unknown or duplicate keys are rejected."""
    raw: dict[str, str] = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        stripped = line.split("#", 1)[0].strip()
        if not stripped:
            continue
        if "=" not in stripped:
            raise ConfigError(f"line {lineno}: expected 'key = value', got {line!r}")
        key, value = (part.strip() for part in stripped.split("=", 1))
        if key not in CONFIG_KEYS:
            raise ConfigError(f"unknown config key '{key}'")
        if key in raw:
            raise ConfigError(f"duplicate config key '{key}'")
        raw[key] = value
    return raw


def _parse_number(raw: dict, key: str, cast, default=None):
    if key not in raw:
        if default is None:
            raise ConfigError(f"missing required config key '{key}'")
        return default
    try:
        return cast(raw[key])
    except ValueError as exc:
        raise ConfigError(f"invalid value for key '{key}': {raw[key]!r}") from exc


def _parse_list(raw: dict, key: str):
    if key not in raw:
        return None
    try:
        values = [float(v) for v in raw[key].split(",") if v.strip()]
    except ValueError as exc:
        raise ConfigError(f"invalid value for key '{key}': {raw[key]!r}") from exc
    if not values:
        raise ConfigError(f"empty grid for key '{key}'")
    return values


@dataclass
class RunPlan:
    mode: str
    base: dict
    grids: dict  # "beta", "nu", "t" -> list of values, or None for the base value

    def cells(self) -> list[ExperimentConfig]:
        """Beta-major, then nu, then t; every path stack is checked before any cell runs."""
        axes = [self.grids[key] or [self.base[key]] for key in ("beta", "nu", "t")]
        cells = [ExperimentConfig(**dict(self.base, beta=beta, nu=nu, t=t))
                 for beta, nu, t in product(*axes)]
        for cfg in cells if self.mode != "annealed" else ():  # only it samples no paths
            cfg.check_path_budget()
        return cells


def build_run_plan(raw: dict, sweep: bool, seed_override: int | None = None) -> RunPlan:
    mode = raw.get("mode", "quenched")
    if mode not in MODES:
        raise ConfigError(f"invalid value for key 'mode': {mode!r} (choose from {MODES})")
    grids = {key: _parse_list(raw, f"grid.{key}") for key in ("beta", "nu", "t")}
    if not sweep and any(g is not None for g in grids.values()):
        raise ConfigError("grid.* keys are only valid for the sweep command")
    base = {
        "d": _parse_number(raw, "d", int, 1),
        "beta": _parse_number(raw, "beta", float,
                              0.0 if grids["beta"] is not None else None),
        "nu": _parse_number(raw, "nu", float,
                            1.0 if grids["nu"] is not None else None),
        "t": _parse_number(raw, "t", float, 4.0),
        "n_steps": _parse_number(raw, "n_steps", int) if "n_steps" in raw else None,
        "n_paths": _parse_number(raw, "paths_per_env", int, 2000),
        "n_envs": _parse_number(raw, "n_envs", int, 200),
        "bin_width": _parse_number(raw, "bin_width", float) if "bin_width" in raw else None,
        "delta": _parse_number(raw, "delta", float, 0.25),
        "seed": _parse_number(raw, "seed", int, 0),
    }
    if seed_override is not None:
        base["seed"] = seed_override
    return RunPlan(mode=mode, base=base, grids=grids)


def _none_if_nan(v: float) -> float | None:
    """JSON has no NaN: an undefined number (one replicate's standard error,
    a missing ESS) is written as null."""
    return None if math.isnan(v) else v


def _run_cell(mode: str, cfg: ExperimentConfig) -> list[dict]:
    """One parameter cell -> one row per estimate the mode's experiment returns.

    The experiments are looked up when the cell runs, so a replacement bound
    in this module's namespace is the one called.
    """
    experiments = {"quenched": quenched_free_energy, "annealed": annealed_free_energy,
                   "localization": localization_scan, "dp-dbeta": dp_dbeta,
                   "dp-dnu": dp_dnu}
    estimates = experiments[mode](cfg)
    extra = {}
    if mode == "localization":
        extra["delta_sets"] = {
            name: {"value": estimates[key].value,
                   "std_error": _none_if_nan(estimates[key].std_error)}
            for name, key in (("middle", "delta_middle"),
                              ("negligible_in_tube", "delta_negligible"),
                              ("predominant_out_of_tube", "delta_predominant"))}
    return [{
        "mode": mode, "d": cfg.d, "beta": cfg.beta, "nu": cfg.nu, "t": cfg.t,
        "n_steps": cfg.n_steps, "M": cfg.n_paths, "K": cfg.n_envs,
        "h": cfg.bin_width, "value": est.value, "std_error": est.std_error,
        "ess_min": est.diagnostics.get("ess_min", math.nan), "observable": observable,
        "diagnostics": {key: _none_if_nan(v) for key, v in est.diagnostics.items()}, **extra,
    } for observable, est in estimates.items()]


def _write_outputs(out_dir: Path, rows: list[dict], config_text: str,
                   plan: RunPlan, timings: dict):
    out_dir.mkdir(parents=True, exist_ok=True)
    config_sha = hashlib.sha256(config_text.encode()).hexdigest()

    csv_lines = [CSV_HEADER]
    for r in rows:
        csv_lines.append(",".join([
            r["mode"], str(r["d"]), _fmt(r["beta"]), _fmt(r["nu"]), _fmt(r["t"]),
            str(r["n_steps"]), str(r["M"]), str(r["K"]), _fmt(r["h"]),
            _fmt(r["value"]), _fmt(r["std_error"]), _fmt(r["ess_min"]),
            r["observable"],
        ]))
    (out_dir / "results.csv").write_text("\n".join(csv_lines) + "\n")

    json_rows = []
    for r in rows:
        obj = dict(r)
        obj["ess_min"] = _none_if_nan(r["ess_min"])
        obj["std_error"] = _none_if_nan(r["std_error"])
        obj["config_sha256"] = config_sha
        json_rows.append(obj)
    (out_dir / "results.json").write_text(
        json.dumps(json_rows, indent=2, sort_keys=True) + "\n")

    manifest = {
        "library_version": __version__,
        "generator": "philox4x64-10",
        "stream_rule": STREAM_RULE,
        "config_text": config_text,
        "config_sha256": config_sha,
        "master_seed": plan.base["seed"],
        "mode": plan.mode,
        "timings_seconds": timings,
    }
    (out_dir / "manifest.json").write_text(
        json.dumps(manifest, indent=2, sort_keys=True) + "\n")


def _load_config_text(args) -> str:
    path = args.from_manifest or args.config
    if path is None:
        raise ConfigError("either a config file or --from-manifest is required")
    try:
        text = Path(path).read_text()
    except UnicodeDecodeError as exc:
        raise ConfigError(f"{path} is not UTF-8 text") from exc
    if not args.from_manifest:
        return text
    try:
        manifest = json.loads(text)
    except json.JSONDecodeError:
        manifest = None
    if not isinstance(manifest, dict) or not isinstance(manifest.get("config_text"), str):
        raise ConfigError(f"manifest {path} is not a JSON object "
                          "with a string key 'config_text'")
    return manifest["config_text"]


def _cmd_experiment(args, sweep: bool) -> int:
    config_text = _load_config_text(args)
    plan = build_run_plan(parse_config_text(config_text), sweep=sweep,
                          seed_override=args.seed)
    rows = []
    timings = {}
    start = time.perf_counter()
    for idx, cfg in enumerate(plan.cells()):
        cell_start = time.perf_counter()
        rows.extend(_run_cell(plan.mode, cfg))
        timings[f"cell_{idx}"] = time.perf_counter() - cell_start
    timings["total"] = time.perf_counter() - start
    _write_outputs(Path(args.out), rows, config_text, plan, timings)
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


def _cmd_analytic(args) -> int:
    out = sys.stdout
    if args.closed_form == "lambda":
        betas = args.grid if args.grid else [args.beta]
        out.write("beta,lambda\n")
        for b in betas:
            out.write(f"{_fmt(b)},{_fmt(annealed_rate(b))}\n")
    elif args.closed_form == "alpha":
        betas = args.grid if args.grid else [args.beta]
        out.write("beta,alpha\n")
        for b in betas:
            out.write(f"{_fmt(b)},{_fmt(critical_curve_exponent(b))}\n")
    elif args.closed_form == "h-alpha":
        us = args.u_grid if args.u_grid else [args.u]
        out.write("alpha,u,h_alpha\n")
        for u in us:
            out.write(f"{_fmt(args.alpha)},{_fmt(u)},{_fmt(curve_kernel(args.alpha, u))}\n")
    elif args.closed_form == "psi-phi":
        us = args.u_grid if args.u_grid else [args.u]
        out.write("beta,u,psi,phi\n")
        for u in us:
            out.write(f"{_fmt(args.beta)},{_fmt(u)},"
                      f"{_fmt(drift_gap_integrand(args.beta, u))},"
                      f"{_fmt(annealed_gap_integrand(args.beta, u))}\n")
    elif args.closed_form == "bc-bounds":
        crit = CriticalPoint(beta0=args.beta0, nu0=args.nu0, sign=args.branch)
        bounds: BetaCriticalBounds = critical_beta_bounds(args.nu, crit, args.alpha)
        out.write("branch,beta0,nu0,alpha,nu,case,lower,upper\n")
        out.write(f"{args.branch},{_fmt(args.beta0)},{_fmt(args.nu0)},"
                  f"{_fmt(args.alpha)},{_fmt(args.nu)},{bounds.case},"
                  f"{_fmt(bounds.lower)},{_fmt(bounds.upper)}\n")
    elif args.closed_form == "classify":
        crit = CriticalPoint(beta0=args.beta0, nu0=args.nu0, sign=args.branch)
        label = classify_phase(args.beta, args.nu, crit, args.alpha)
        out.write("branch,beta0,nu0,alpha,beta,nu,phase\n")
        out.write(f"{args.branch},{_fmt(args.beta0)},{_fmt(args.nu0)},"
                  f"{_fmt(args.alpha)},{_fmt(args.beta)},{_fmt(args.nu)},"
                  f"{label.value}\n")
    elif args.closed_form == "bessel":
        out.write("d,gamma,ratio,ratio_squared\n")
        out.write(f"{args.d},{_fmt(bessel_zero(args.d))},"
                  f"{_fmt(critical_intensity_ratio(args.d))},"
                  f"{_fmt(critical_intensity_lower_bound(args.d))}\n")
    else:  # l2
        out.write("beta,nu,a_l2,in_l2_region\n")
        out.write(f"{_fmt(args.beta)},{_fmt(args.nu)},{_fmt(args.a_l2)},"
                  f"{str(in_l2_region(args.beta, args.nu, args.a_l2)).lower()}\n")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="polymer",
        description="Brownian polymer in a Poissonian medium: closed forms and"
                    " Monte Carlo experiments.")
    sub = parser.add_subparsers(dest="command", required=True)

    analytic = sub.add_parser("analytic", help="evaluate a closed form")
    forms = analytic.add_subparsers(dest="closed_form", required=True)

    p_lambda = forms.add_parser("lambda", help="annealed rate e^beta - 1")
    p_lambda.add_argument("--beta", type=_coupling, default=0.0)
    p_lambda.add_argument("--grid", type=_linspace(_coupling), default=None,
                          metavar="START,STOP,N")

    p_alpha = forms.add_parser("alpha", help="critical-curve exponent")
    p_alpha.add_argument("--beta", type=_coupling, default=0.0)
    p_alpha.add_argument("--grid", type=_linspace(_coupling), default=None,
                         metavar="START,STOP,N")

    p_h = forms.add_parser("h-alpha", help="curve monotonicity kernel")
    p_h.add_argument("--alpha", type=_finite_float, required=True)
    p_h.add_argument("--u", type=_finite_float, default=0.0)
    p_h.add_argument("--u-grid", type=_linspace(_finite_float), default=None,
                     metavar="START,STOP,N")

    p_pp = forms.add_parser("psi-phi", help="derivative-gap integrands")
    p_pp.add_argument("--beta", type=_coupling, required=True)
    p_pp.add_argument("--u", type=_finite_float, default=0.0)
    p_pp.add_argument("--u-grid", type=_linspace(_finite_float), default=None,
                      metavar="START,STOP,N")

    p_bc = forms.add_parser("bc-bounds", help="critical coupling sandwich")
    p_bc.add_argument("--branch", choices=("plus", "minus"), required=True)
    p_bc.add_argument("--beta0", type=_coupling, required=True)
    p_bc.add_argument("--nu0", type=_finite_float, required=True)
    p_bc.add_argument("--alpha", type=_finite_float, required=True)
    p_bc.add_argument("--nu", type=_finite_float, required=True)

    p_cl = forms.add_parser("classify", help="phase of a (beta, nu) query")
    p_cl.add_argument("--branch", choices=("plus", "minus"), required=True)
    p_cl.add_argument("--beta0", type=_coupling, required=True)
    p_cl.add_argument("--nu0", type=_finite_float, required=True)
    p_cl.add_argument("--alpha", type=_finite_float, required=True)
    p_cl.add_argument("--beta", type=_coupling, required=True)
    p_cl.add_argument("--nu", type=_finite_float, required=True)

    p_bessel = forms.add_parser("bessel", help="critical-intensity bound table")
    p_bessel.add_argument("--d", type=int, required=True)

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
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        if args.command == "analytic":
            return _cmd_analytic(args)
        return _cmd_experiment(args, sweep=args.command == "sweep")
    except InvariantViolationError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    except (ConfigError, InvalidParameterError, HypothesisError, InvalidQueryError,
            OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
