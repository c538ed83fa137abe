"""Monte Carlo experiments over environments.

The sampling is environments-outer, paths-inner: each of the K environments
gets its own path batch, an (M, n_steps + 1, d) array; the spatial window is
sized from that batch (range inflated by r_d + 0.5, sampled after the paths
so it covers all of them), and the cloud is drawn on that window.  One loop,
``_over_environments``, builds every replicate's ensembles once and hands
them to a per-experiment reducer.  Replicates use substreams derived from
(seed, tag, replicate index), so results are independent of scheduling and
reproducible bit for bit.

Derivative estimators return all their estimates from that one pass:
``dp_dbeta`` the direct, Palm and finite-difference forms, ``dp_dnu`` the
field and coupled-difference forms.  Finite differences share the random
numbers of both evaluation points (same path batch and same cloud, or the
coupled cloud superposition for intensity differences); the difference
variance collapses by orders of magnitude compared to independent runs.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass, field

import numpy as np

from .environment import SpaceTimeBox, count_in_tube, sample_poisson, superpose
from .errors import InvalidParameterError
from .geometry import unit_ball_radius
from .polymer import (
    GibbsEnsemble,
    TimeGrid,
    WINDOW_MARGIN,
    assert_two_to_one,
    bounding_box_for,
    build_ensemble,
    favourite_overlap,
    favourite_path,
    occupancy_field,
    sample_paths,
)
from .streams import substream

__all__ = [
    "EstimateWithError",
    "ExperimentConfig",
    "MonotonicitySlacks",
    "ScanCell",
    "quenched_free_energy",
    "annealed_free_energy",
    "dp_dbeta",
    "dp_dnu",
    "nu_monotonicity",
    "localization_scan",
]

ESS_WARN_FRACTION = 0.01


@dataclass(frozen=True)
class EstimateWithError:
    """Point estimate with its standard error over replicates."""

    value: float
    std_error: float
    n_replicates: int
    diagnostics: dict = field(default_factory=dict, compare=False)


def _mean_se(values, diagnostics: dict | None = None) -> EstimateWithError:
    arr = np.asarray(values, dtype=float)
    k = len(arr)
    se = float(arr.std(ddof=1) / math.sqrt(k)) if k > 1 else math.nan
    return EstimateWithError(float(arr.mean()), se, k, diagnostics or {})


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one Monte Carlo cell.

    ``n_paths`` paths per environment, ``n_envs`` independent environments;
    ``bin_width`` defaults to r_d / 4.  Desk-scale defaults target d = 1,
    t <= 8 with n_steps = 64 t.
    """

    d: int
    beta: float
    nu: float
    t: float
    n_steps: int | None = None
    n_paths: int = 2000
    n_envs: int = 200
    bin_width: float | None = None
    delta: float = 0.25
    seed: int = 0

    def __post_init__(self):
        for key in ("beta", "nu", "t", "bin_width", "delta"):
            value = getattr(self, key)
            if value is not None and not math.isfinite(value):
                raise InvalidParameterError(f"invalid config value for key '{key}'")
        if self.n_steps is None:
            object.__setattr__(self, "n_steps", max(1, round(64 * self.t)))
        if self.bin_width is None:
            object.__setattr__(self, "bin_width", unit_ball_radius(self.d) / 4.0)
        self.validate()

    def validate(self):
        checks = [
            ("d", self.d >= 1 and int(self.d) == self.d),
            ("nu", self.nu >= 0),
            ("t", self.t > 0),
            ("n_steps", self.n_steps >= 1),
            ("paths_per_env", self.n_paths >= 1),
            ("n_envs", self.n_envs >= 1),
            ("bin_width", self.bin_width > 0),
            ("delta", 0.0 < self.delta <= 0.5),
        ]
        for key, ok in checks:
            if not ok:
                raise InvalidParameterError(f"invalid config value for key '{key}'")

    @property
    def grid(self) -> TimeGrid:
        return TimeGrid(self.t, self.n_steps)


def _over_environments(cfg: ExperimentConfig, reduce, nus=None, extra_nu=None):
    """The environment loop of every path-batch experiment.

    Replicate i samples its path batch once, sizes the window from it and
    weights it in one cloud per intensity in ``nus`` (default ``cfg.nu``),
    each drawn from the ("cloud", i) substream.  With ``extra_nu`` one more
    ensemble sees the last of those clouds superposed with an independent
    ``extra_nu`` cloud from ("cloud-extra", i), the coupling behind intensity
    differences.  ``reduce(i, *ensembles)`` returns a tuple of floats; the
    result is one array per tuple slot in replicate order, plus the worst
    effective sample size of the first ensemble.
    """
    grid = cfg.grid
    rows = []
    ess_min = math.inf
    for i in range(cfg.n_envs):
        positions = sample_paths(grid, cfg.d, cfg.n_paths,
                                 substream(cfg.seed, "paths", i))
        lo, hi = bounding_box_for(positions, cfg.t, WINDOW_MARGIN)
        box = SpaceTimeBox(t_max=cfg.t, lo=lo, hi=hi)
        clouds = [sample_poisson(box, nu, substream(cfg.seed, "cloud", i))
                  for nu in (nus or (cfg.nu,))]
        if extra_nu is not None:
            extra = sample_poisson(box, extra_nu, substream(cfg.seed, "cloud-extra", i))
            clouds.append(superpose(clouds[-1], extra))
        ensembles = [build_ensemble(positions, grid, cloud, cfg.beta) for cloud in clouds]
        ess_min = min(ess_min, ensembles[0].ess)
        rows.append(reduce(i, *ensembles))
    if ess_min < ESS_WARN_FRACTION * cfg.n_paths:
        warnings.warn(
            f"importance weights are degenerate: worst ESS {ess_min:.2f} is below "
            f"{ESS_WARN_FRACTION:.0%} of {cfg.n_paths} paths per environment "
            f"(beta={cfg.beta}, nu={cfg.nu})", RuntimeWarning, stacklevel=3)
    return [np.array(column) for column in zip(*rows)], ess_min


def _checked_field(cfg: ExperimentConfig, i: int, ens: GibbsEnsemble):
    """Occupancy field of replicate i and the report of its re-asserted grid
    inequalities, which carries the field's overlaps and delta sets."""
    fld = occupancy_field(ens, cfg.bin_width)
    return fld, assert_two_to_one(ens, fld, cfg.delta, seed=cfg.seed, replicate=i)


def _log_z_jackknife(ensemble: GibbsEnsemble) -> tuple[float, float]:
    """(jackknife-corrected ln Z_hat, estimated bias of the raw value)."""
    m = ensemble.n_paths
    raw = ensemble.log_z_hat
    if m < 2:
        return raw, 0.0
    w = np.minimum(ensemble.normalized_weights, 1.0 - 1e-15)
    loo = raw + math.log(m) + np.log1p(-w) - math.log(m - 1)
    bias = (m - 1) * (float(loo.mean()) - raw)
    return raw - bias, bias


def quenched_free_energy(cfg: ExperimentConfig) -> EstimateWithError:
    """Mean over environments of (1/t) ln Z_hat, jackknife-corrected.

    The ln-of-mean estimator is biased low at finite M; the per-environment
    jackknife over paths removes the leading 1/M term, and the estimated
    bias plus the worst effective sample size are reported as diagnostics.
    """
    (values, biases), ess_min = _over_environments(
        cfg, lambda i, ens: tuple(v / cfg.t for v in _log_z_jackknife(ens)))
    diag = {"ess_min": ess_min,
            "ess_degenerate": ess_min < ESS_WARN_FRACTION * cfg.n_paths,
            "jackknife_bias_mean": float(biases.mean())}
    return _mean_se(values, diag)


def annealed_free_energy(cfg: ExperimentConfig) -> EstimateWithError:
    """(1/t) ln of the environment average of exp(beta H) for the pinned
    zero path; targets nu * (e^beta - 1) exactly.

    H is exactly Poisson(nu t) for any fixed discretized path because the
    slab tube has space-time volume t, so this estimator has a closed-form
    target.  The standard error comes from the delta method.
    """
    r = unit_ball_radius(cfg.d)
    box = SpaceTimeBox(t_max=cfg.t, lo=(-r - WINDOW_MARGIN,) * cfg.d,
                       hi=(r + WINDOW_MARGIN,) * cfg.d)
    zero_path = np.zeros((cfg.n_steps + 1, cfg.d))
    counts = np.empty(cfg.n_envs, dtype=np.int64)
    for i in range(cfg.n_envs):
        cloud = sample_poisson(box, cfg.nu, substream(cfg.seed, "cloud", i))
        counts[i] = count_in_tube(cloud, zero_path, cfg.t)
    g = cfg.beta * counts.astype(float)
    shift = g.max()
    y = np.exp(g - shift)
    mean_y = float(y.mean())
    value = (shift + math.log(mean_y)) / cfg.t
    se = float(y.std(ddof=1) / math.sqrt(cfg.n_envs)) / mean_y / cfg.t \
        if cfg.n_envs > 1 else math.nan
    return EstimateWithError(value, se, cfg.n_envs,
                             {"target": cfg.nu * math.expm1(cfg.beta)})


def dp_dbeta(cfg: ExperimentConfig, eps: float = 0.05) -> dict[str, EstimateWithError]:
    """Beta-derivative of the quenched free energy, three ways, from one pass.

    direct: Gibbs mean of the Hamiltonian over t.
    palm: the added-point identity turns the derivative into
        nu e^beta times the field integral of m / (1 + lambda m).
    finite_difference: central difference of (1/t) ln Z_hat at beta +- eps
        with common random numbers (same paths, same cloud).
    """
    lam = math.expm1(cfg.beta)

    def reduce(i, ens):
        fld, _ = _checked_field(cfg, i, ens)
        integral = float(np.mean(
            np.sum(fld.values / (1.0 + lam * fld.values), axis=1)) * fld.cell_volume)
        return (float(ens.normalized_weights @ ens.hamiltonians) / cfg.t,
                cfg.nu * math.exp(cfg.beta) * integral,
                (ens.log_z_at(cfg.beta + eps) - ens.log_z_at(cfg.beta - eps))
                / (2.0 * eps * cfg.t))

    columns, ess_min = _over_environments(cfg, reduce)
    return {method: _mean_se(values, {"ess_min": ess_min}) for method, values
            in zip(("direct", "palm", "finite_difference"), columns)}


def dp_dnu(cfg: ExperimentConfig, eps: float | None = None) -> dict[str, EstimateWithError]:
    """Intensity-derivative two ways, from one pass over shared path batches.

    field: the field integral of ln(1 + lambda m) at nu.
    coupled_fd: central difference of (1/t) ln Z_hat in the intensity, where
        the nu + eps cloud is the nu - eps cloud superposed with an
        independent 2 eps cloud, on the same path batch.
    """
    if eps is None:
        eps = 0.05 * cfg.nu
    if not 0.0 < eps < cfg.nu:
        raise InvalidParameterError("need 0 < eps < nu for the coupled difference")
    lam = math.expm1(cfg.beta)

    def reduce(i, ens, ens_lo, ens_hi):
        fld, _ = _checked_field(cfg, i, ens)
        return (float(np.mean(np.sum(np.log1p(lam * fld.values), axis=1))
                      * fld.cell_volume),
                (ens_hi.log_z_hat - ens_lo.log_z_hat) / (2.0 * eps * cfg.t))

    (field_values, fd_values), ess_min = _over_environments(
        cfg, reduce, nus=(cfg.nu, cfg.nu - eps), extra_nu=2.0 * eps)
    return {"field": _mean_se(field_values, {"ess_min": ess_min}),
            "coupled_fd": _mean_se(fd_values)}


@dataclass(frozen=True)
class MonotonicitySlacks:
    """Slack of the coupled free-energy difference against its two bounds."""

    lower: EstimateWithError  # difference minus beta * (nu - nu_lo)
    upper: EstimateWithError  # lambda(beta) * (nu - nu_lo) minus difference
    difference: EstimateWithError


def nu_monotonicity(cfg: ExperimentConfig, nu_lo: float) -> MonotonicitySlacks:
    """Coupled estimate of p(beta, nu) - p(beta, nu_lo) and its bound slacks.

    The nu-cloud is built as the nu_lo-cloud plus an independent
    (nu - nu_lo)-cloud on the same window, with the same path batch, so the
    monotone coupling bounds hold replicate by replicate in expectation.
    """
    if not 0.0 < nu_lo <= cfg.nu:
        raise InvalidParameterError(f"need 0 < nu_lo <= nu, got nu_lo={nu_lo}")
    gap = cfg.nu - nu_lo
    (diffs,), _ = _over_environments(
        cfg, lambda i, ens_lo, ens_hi: ((ens_hi.log_z_hat - ens_lo.log_z_hat) / cfg.t,),
        nus=(nu_lo,), extra_nu=gap)
    lam = math.expm1(cfg.beta)
    difference = _mean_se(diffs)
    lower = _mean_se(diffs - cfg.beta * gap)
    upper = _mean_se(lam * gap - diffs)
    return MonotonicitySlacks(lower=lower, upper=upper, difference=difference)


@dataclass(frozen=True)
class ScanCell:
    """Q-averaged localization observables for one parameter cell."""

    cfg: ExperimentConfig
    overlap: EstimateWithError
    favourite: EstimateWithError
    delta_middle: EstimateWithError
    delta_negligible: EstimateWithError
    delta_predominant: EstimateWithError
    ess_min: float


def _scan_cell(cfg: ExperimentConfig) -> ScanCell:
    def reduce(i, ens):
        fld, report = _checked_field(cfg, i, ens)
        ds = report.deltas
        return (report.replica, favourite_overlap(ens, favourite_path(fld)),
                ds.middle_measure, ds.negligible_in_tube, ds.predominant_out_of_tube)

    (r2, r_star, middles, negs, preds), ess_min = _over_environments(cfg, reduce)
    return ScanCell(cfg=cfg, overlap=_mean_se(r2), favourite=_mean_se(r_star),
                    delta_middle=_mean_se(middles), delta_negligible=_mean_se(negs),
                    delta_predominant=_mean_se(preds), ess_min=ess_min)


def localization_scan(cfgs: list[ExperimentConfig]) -> list[ScanCell]:
    """Localization observables over a list of parameter cells.

    Each cell re-asserts the exact per-configuration grid inequalities on
    every replicate and aborts with the offending seed on violation.
    """
    return [_scan_cell(cfg) for cfg in cfgs]
