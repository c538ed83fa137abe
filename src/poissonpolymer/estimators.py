"""Monte Carlo experiments over environments.

The sampling is environments-outer, paths-inner: each of the K environments
gets its own path batch, an (M, n_steps + 1, d) array; the spatial window is
sized from that batch (range inflated by r_d + 0.5, sampled after the paths
so it covers all of them), and the cloud is drawn on that window.  One loop,
``_over_environments``, weights every replicate's paths in one cloud and
hands the ensemble to a per-experiment reducer.  Replicates use substreams
derived from (seed, tag, replicate index), so results are independent of
scheduling and reproducible bit for bit.

Every experiment takes one ``ExperimentConfig`` and returns a dict from
observable name (the CLI's ``observable`` column) to ``EstimateWithError``;
estimates over path-batch ensembles carry the diagnostics of
``_over_environments``.

Derivative estimators return all their estimates from that one pass:
``dp_dbeta`` the direct, Palm and finite-difference forms, ``dp_dnu`` the
field and coupled-difference forms.  Finite differences share the random
numbers of both evaluation points (same path batch and same cloud, or for
intensity differences the lower cloud's tube counts plus those of an
independent increment cloud); the difference variance collapses by orders
of magnitude compared to independent runs.
"""

from __future__ import annotations

import math
import warnings
from itertools import islice
from dataclasses import dataclass, field

import numpy as np

from .analytics import MAX_BESSEL_DIMENSION, _log_tilt, _tilt
from .environment import (_CHUNK_ELEMENTS, SpaceTimeBox, _expected_points, batch_tube_counts,
                          draw_poisson, sample_poisson)
from .errors import InvalidParameterError
from .geometry import unit_ball_radius
from .polymer import (
    MAX_PATH_ELEMENTS,
    GibbsEnsemble,
    _field_blocks,
    _integer,
    bounding_box_for,
    build_ensemble,
    field_report,
    path_extent,
    sample_paths,
)
from .streams import substream, substreams

__all__ = [
    "BETA_LIMIT",
    "EstimateWithError",
    "ExperimentConfig",
    "quenched_free_energy",
    "annealed_free_energy",
    "dp_dbeta",
    "dp_dnu",
    "localization_scan",
]

ESS_WARN_FRACTION = 0.01

# Largest |beta| a config or the analytic command accepts: (e^beta - 1)^2,
# which the closed forms square, leaves the double range just above
# |beta| = 354, and e^beta itself just above 709.
BETA_LIMIT = 350.0


@dataclass(frozen=True)
class EstimateWithError:
    """Point estimate with its standard error over replicates."""

    value: float
    std_error: float
    diagnostics: dict = field(default_factory=dict, compare=False)


def _mean_se(values, diagnostics: dict | None = None) -> EstimateWithError:
    arr = np.asarray(values, dtype=float)
    se = float(arr.std(ddof=1) / math.sqrt(len(arr))) if len(arr) > 1 else math.nan
    return EstimateWithError(float(arr.mean()), se, diagnostics or {})


@dataclass(frozen=True)
class ExperimentConfig:
    """Inputs of one Monte Carlo cell.

    ``n_paths`` paths per environment, ``n_envs`` independent environments
    (at most 10^8: the annealed counts take 8 bytes each); ``bin_width``
    defaults to r_d / 4 and is at most 2 r_d / sqrt(d).
    Desk-scale defaults target d = 1, t <= 8 with n_steps = 64 t.  The
    counts d (at most ``analytics.MAX_BESSEL_DIMENSION``), n_steps and
    n_paths (each at most 2^53), n_envs and seed are integers, not bools.
    ``|beta|`` is at most ``BETA_LIMIT``.  An invalid value raises
    ``InvalidParameterError`` naming its key.
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
        def require(key, ok):
            if not ok:
                raise InvalidParameterError(f"invalid config value for key '{key}'")

        for key in ("beta", "nu", "t", "bin_width", "delta"):
            value = getattr(self, key)
            require(key, value is None or math.isfinite(value))
        require("d", _integer(self.d) and 1 <= self.d <= MAX_BESSEL_DIMENSION)  # r_d needs it
        require("t", self.t > 0)  # the n_steps default 64 t needs it
        if self.n_steps is None:
            require("t", 64 * self.t <= 2 ** 53)
            object.__setattr__(self, "n_steps", max(1, round(64 * self.t)))
        if self.bin_width is None:
            object.__setattr__(self, "bin_width", unit_ball_radius(self.d) / 4.0)
        require("beta", abs(self.beta) <= BETA_LIMIT)
        require("nu", self.nu >= 0)
        require("n_steps", _integer(self.n_steps) and 1 <= self.n_steps <= 2 ** 53)
        require("paths_per_env", _integer(self.n_paths) and 1 <= self.n_paths <= 2 ** 53)
        require("n_envs", _integer(self.n_envs) and 1 <= self.n_envs <= 10 ** 8)
        # in wider bins a ball of radius r_d can miss every bin center
        require("bin_width",
                0 < self.bin_width <= 2 * unit_ball_radius(self.d) / math.sqrt(self.d))
        require("delta", 0.0 < self.delta <= 0.5)
        require("seed", _integer(self.seed))
        for key in ("d", "n_steps", "n_paths", "n_envs", "seed"):  # numpy integers too
            object.__setattr__(self, key, int(getattr(self, key)))

    def check_path_budget(self):
        """Refuse a path stack above ``polymer.MAX_PATH_ELEMENTS`` doubles."""
        stack = self.n_paths * (self.n_steps + 1) * self.d
        if stack > MAX_PATH_ELEMENTS:
            raise InvalidParameterError(
                f"'paths_per_env' * ('n_steps' + 1) * d = {stack:.3g} path elements, "
                f"above the budget of {MAX_PATH_ELEMENTS:.0e}")


def _over_environments(cfg: ExperimentConfig, reduce, densities=None):
    """The environment loop of every path-batch experiment.

    Replicate i samples its path batch once, takes its extent once (for the
    window and for the ensemble's coverage check), sizes the window from it
    and weights it in one cloud at ``cfg.nu`` from the ("cloud", i)
    substream.  ``reduce(i, ensemble, *field)`` returns a tuple of floats;
    ``field`` is empty, or with ``densities`` (a tuple, possibly empty) the
    report of the re-asserted grid inequalities of the ensemble's field,
    which holds the overlaps and delta sets, then the field integral of each
    density.  The result is one array per tuple slot in replicate order,
    plus the diagnostics ``ess_min``, ``ess_median`` and ``ess_degenerate``
    of the ensembles, the mean point count and window volume
    (``points_mean``, ``window_volume_mean``) and, with ``densities``, the
    worst ``min_slack``.  No replicate's path stack outlives the replicate.
    """
    cfg.check_path_budget()
    rows, stats = [], []
    min_slack = math.inf
    for i in range(cfg.n_envs):
        positions = sample_paths(cfg.t, cfg.n_steps, cfg.d, cfg.n_paths,
                                 substream(cfg.seed, "paths", i))
        extent = path_extent(positions)
        box = SpaceTimeBox(cfg.t, *bounding_box_for(positions, extent))
        cloud = sample_poisson(box, cfg.nu, substream(cfg.seed, "cloud", i))
        ensemble = build_ensemble(positions, cfg.t, cloud, cfg.beta, extent)
        stats.append((ensemble.ess, cloud.n_points, box.volume))
        field = ()
        if densities is not None:
            blocks = _field_blocks(ensemble, cfg.bin_width)
            report, integrals = field_report(blocks, cfg.bin_width, cfg.d, cfg.delta, densities,
                                             seed=cfg.seed, replicate=i)
            field = (report, *integrals)
            min_slack = min(min_slack, report.min_slack())
        rows.append(reduce(i, ensemble, *field))
        positions = cloud = ensemble = None  # none outlives its replicate
    ess, points, volumes = np.array(stats).T
    ess.sort()  # for min and median; np.median would import numpy.ma, about 1.5 MB
    degenerate = bool(ess[0] < ESS_WARN_FRACTION * cfg.n_paths)
    if degenerate:
        warnings.warn(
            f"importance weights are degenerate: worst ESS {ess[0]:.2f} is below "
            f"{ESS_WARN_FRACTION:.0%} of {cfg.n_paths} paths per environment "
            f"(beta={cfg.beta}, nu={cfg.nu})", RuntimeWarning, stacklevel=3)
    diag = {"ess_min": float(ess[0]), "ess_degenerate": degenerate,
            "ess_median": float(ess[(len(ess) - 1) // 2] + ess[len(ess) // 2]) / 2,
            "points_mean": float(points.mean()), "window_volume_mean": float(volumes.mean())}
    return ([np.array(column) for column in zip(*rows)],
            diag | ({"min_slack": float(min_slack)} if densities is not None else {}))


def quenched_free_energy(cfg: ExperimentConfig) -> dict[str, EstimateWithError]:
    """Mean over environments of (1/t) ln Z_hat, jackknife-corrected.

    The ln-of-mean estimator is biased low at finite M; the per-environment
    jackknife over paths removes the leading 1/M term, and the estimated
    bias plus the worst effective sample size are reported as diagnostics.
    """
    (values, biases), diag = _over_environments(
        cfg, lambda i, ens: tuple(v / cfg.t for v in ens.log_z_jackknife()))
    return {"quenched_free_energy": _mean_se(
        values, {**diag, "jackknife_bias_mean": float(biases.mean())})}


def annealed_free_energy(cfg: ExperimentConfig) -> dict[str, EstimateWithError]:
    """(1/t) ln of the environment average of exp(beta H) for the pinned
    zero path; targets nu * (e^beta - 1) exactly.

    H is exactly Poisson(nu t) for any fixed discretized path because the
    slab tube has space-time volume t, so this estimator has a closed-form
    target.  The zero path's tube is |x| <= r_d at all times, so the points
    are counted as drawn, in blocks of about ``_CHUNK_ELEMENTS`` coordinates.
    The standard error comes from the delta method.
    """
    r = unit_ball_radius(cfg.d)
    box = SpaceTimeBox(cfg.t, *bounding_box_for(np.zeros((1, 1, cfg.d))))
    counts = np.empty(cfg.n_envs, dtype=np.int64)
    block = max(1, _CHUNK_ELEMENTS // (cfg.d * math.ceil(_expected_points(box, cfg.nu) + 1)))
    clouds = substreams(cfg.seed, "cloud", range(cfg.n_envs))
    for start in range(0, cfg.n_envs, block):
        envs = range(start, min(start + block, cfg.n_envs))
        _, x, sizes = draw_poisson(box, cfg.nu, islice(clouds, len(envs)))
        owner = np.repeat(np.arange(len(envs)), sizes)
        counts[start:envs.stop] = np.bincount(owner[np.einsum("pd,pd->p", x, x) <= r * r],
                                              minlength=len(envs))
    g = cfg.beta * counts.astype(float)
    shift = g.max()
    y = np.exp(g - shift)
    mean_y = float(y.mean())
    value = (shift + math.log(mean_y)) / cfg.t
    se = float(y.std(ddof=1) / math.sqrt(cfg.n_envs)) / mean_y / cfg.t \
        if cfg.n_envs > 1 else math.nan
    return {"annealed_free_energy": EstimateWithError(
        value, se, {"target": cfg.nu * math.expm1(cfg.beta)})}


def dp_dbeta(cfg: ExperimentConfig) -> dict[str, EstimateWithError]:
    """Beta-derivative of the quenched free energy, three ways, from one pass.

    dp_dbeta_direct: Gibbs mean of the Hamiltonian over t.
    dp_dbeta_palm: the added-point identity turns the derivative into
        nu e^beta times the field integral of m / (1 + lambda m).
    dp_dbeta_finite_difference: central difference of (1/t) ln Z_hat at
        beta +- 0.05 with common random numbers (same paths, same cloud).
    """
    eps = 0.05

    def reduce(i, ens, report, palm):
        return (ens.mean_h / cfg.t,
                cfg.nu * math.exp(cfg.beta) * palm,
                (ens.log_z_at(cfg.beta + eps) - ens.log_z_at(cfg.beta - eps))
                / (2.0 * eps * cfg.t))

    columns, diag = _over_environments(cfg, reduce, densities=(lambda m: m / _tilt(cfg.beta, m),))
    return {f"dp_dbeta_{method}": _mean_se(values, diag) for method, values
            in zip(("direct", "palm", "finite_difference"), columns)}


def dp_dnu(cfg: ExperimentConfig) -> dict[str, EstimateWithError]:
    """Intensity-derivative two ways, from one pass over shared path batches.

    dp_dnu_field: the field integral of ln(1 + lambda m) at nu.
    dp_dnu_coupled_fd: central difference of (1/t) ln Z_hat at nu +- eps,
        eps = 0.05 nu, on the nu ensemble's paths and window: the nu - eps
        counts come from ("cloud", i), the nu + eps counts add those of an
        independent 2 eps cloud from ("cloud-extra", i).
    """
    if cfg.nu <= 0:
        raise InvalidParameterError("invalid config value for key 'nu': the coupled "
                                    "difference needs nu > 0")
    eps = 0.05 * cfg.nu

    def reduce(i, ens, report, field_integral):
        low, extra = (batch_tube_counts(sample_poisson(ens.box, nu, substream(cfg.seed, tag, i)),
                                        ens.positions, cfg.t)
                      for nu, tag in ((cfg.nu - eps, "cloud"), (2.0 * eps, "cloud-extra")))
        log_z_low, log_z_high = (GibbsEnsemble(ens.positions, h, cfg.beta, ens.box).log_z_hat
                                 for h in (low, low + extra))
        return (field_integral, (log_z_high - log_z_low) / (2.0 * eps * cfg.t))

    (field_values, fd_values), diag = _over_environments(
        cfg, reduce, densities=(lambda m: _log_tilt(cfg.beta, m),))
    return {"dp_dnu_field": _mean_se(field_values, diag),
            "dp_dnu_coupled_fd": _mean_se(fd_values, {"min_slack": diag["min_slack"]})}


def localization_scan(cfg: ExperimentConfig) -> dict[str, EstimateWithError]:
    """Replica and favourite overlaps and the three delta-set measures.

    Every replicate's field re-asserts the exact per-configuration grid
    inequalities, aborting with the offending seed on violation, and the
    report of that check holds all five observables.
    """
    def reduce(i, ens, report):
        return (report.replica, report.favourite, report.middle, report.negligible,
                report.predominant)

    columns, diag = _over_environments(cfg, reduce, densities=())
    return {name: _mean_se(values, diag) for name, values in zip(
        ("replica_overlap", "favourite_overlap", "delta_middle", "delta_negligible",
         "delta_predominant"), columns)}
