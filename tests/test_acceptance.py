"""End-to-end acceptance criteria at their stated tolerances.

Each test prints one ``ACCEPTANCE <id> PASS/FAIL`` line (visible with
``pytest -s`` or on failure).  Tolerances are pinned here, not calibrated:
statistical checks use multiples of the measured standard errors, exact grid
inequalities use 1e-9, closed forms 1e-12.
"""

import math
import time

import numpy as np
import pytest

from conftest import random_gibbs_ensemble
from oracles import fixed_window, nu_monotonicity, transfer_d1
from poissonpolymer.analytics import (
    annealed_gap_integrand,
    annealed_rate,
    critical_curve_exponent,
    critical_intensity_lower_bound,
    critical_intensity_ratio,
    curve_kernel,
    drift_gap_integrand,
)
from poissonpolymer.cli import main
from poissonpolymer.environment import PointCloud, sample_poisson
from poissonpolymer.estimators import (
    EstimateWithError,
    ExperimentConfig,
    annealed_free_energy,
    dp_dbeta,
    localization_scan,
    quenched_free_energy,
)
from poissonpolymer.geometry import unit_ball_radius
from poissonpolymer.polymer import _field_blocks, field_report
from poissonpolymer.streams import substream

SEED = 20260810


def report(cid: str, passed: bool, detail: str):
    print(f"ACCEPTANCE {cid} {'PASS' if passed else 'FAIL'}: {detail}")
    assert passed, f"criterion {cid}: {detail}"


class TestCriterion1AnnealedIdentity:
    """Fixed zero path, K = 1e5 environments: (1/t) ln mean exp(beta H)
    matches nu * (e^beta - 1) within 3 standard errors."""

    @pytest.mark.parametrize("beta", [0.5, -1.0])
    def test_annealed_identity(self, beta):
        start = time.perf_counter()
        cfg = ExperimentConfig(d=1, beta=beta, nu=1.0, t=4.0, n_paths=1,
                               n_envs=100_000, seed=SEED)
        est = annealed_free_energy(cfg)["annealed_free_energy"]
        target = cfg.nu * annealed_rate(beta)
        err = abs(est.value - target)
        elapsed = time.perf_counter() - start
        report(f"1(beta={beta})", err <= 3.0 * est.std_error,
               f"|{est.value:.6f} - {target:.6f}| = {err:.2e} "
               f"<= 3*SE = {3.0 * est.std_error:.2e} [{elapsed:.0f}s]")


class TestCriterion2BesselTable:
    """Critical-intensity ratio table and the large-d lower-bound claim."""

    def test_printed_values_and_large_d(self):
        start = time.perf_counter()
        printed = {3: 1.266, 4: 1.792, 5: 2.190}
        ratios = {d: critical_intensity_ratio(d) for d in printed}
        squares = {d: critical_intensity_lower_bound(d) for d in printed}
        ok_table = all(abs(ratios[d] - printed[d]) <= 2e-3 for d in printed)
        # also accept the truncated 1.265 print for d = 3
        ok_table = ok_table and abs(ratios[3] - 1.265) <= 2e-3
        # large d: the claimed constant sqrt(e / (8 pi)) = 0.329 is a lower
        # bound for d^{-1/2} * ratio (the actual limit is sqrt(2 pi e)/4,
        # a factor pi higher); verify the bound with 5% slack at d = 200
        large_d = critical_intensity_ratio(200) / math.sqrt(200.0)
        claimed = math.sqrt(math.e / (8.0 * math.pi))
        ok_large = large_d >= 0.95 * claimed
        elapsed = time.perf_counter() - start
        report("2", ok_table and ok_large,
               f"ratios {[round(ratios[d], 4) for d in (3, 4, 5)]} vs printed "
               f"{list(printed.values())} (squared: "
               f"{[round(squares[d], 4) for d in (3, 4, 5)]}); "
               f"d=200: ratio/sqrt(d) = {large_d:.4f} >= 0.95 * {claimed:.4f} "
               f"[{elapsed:.2f}s]")


class TestCriterion3ClosedFormSuite:
    """Exponent value/monotonicity, kernel sign table, integrand dual forms."""

    def test_exponent_at_zero_and_decreasing(self):
        grid = np.linspace(-10.0, 10.0, 1000)
        vals = np.array([critical_curve_exponent(b) for b in grid])
        ok = critical_curve_exponent(0.0) == 2.0 and bool(np.all(np.diff(vals) < 0))
        report("3(exponent)", ok, "alpha(0) = 2 and strictly decreasing on "
                                  "the 1000-point grid over [-10, 10]")

    def test_kernel_sign_table(self):
        tol = 1e-12
        worst = 0.0
        u_pos = np.linspace(0.0, 50.0, 10_000)
        worst = max(worst, float(np.max(curve_kernel(2.0, u_pos))))
        u_neg = np.linspace(-1.0 + 1e-9, 0.0, 10_000)
        worst = max(worst, float(np.max(-curve_kernel(2.0, u_neg))))
        for sign in (1.0, -1.0):
            betas = sign * np.linspace(1e-3, 5.0, 100)
            for beta in betas:
                alpha = critical_curve_exponent(beta)
                u = np.linspace(0.0, annealed_rate(beta), 100)
                vals = curve_kernel(alpha, u)
                # kernel >= 0 on [0, lambda] for beta > 0, <= 0 for beta < 0
                worst = max(worst, float(np.max(-sign * vals)))
        report("3(kernel)", worst <= tol,
               f"worst sign violation {worst:.2e} <= 1e-12 on 4 x 1e4 grids")

    def test_integrand_dual_forms(self):
        worst = 0.0
        for beta in np.linspace(-3.0, 3.0, 100):
            u = np.linspace(0.0, 1.0, 100)
            lam = math.expm1(beta)
            psi_alt = math.exp(beta) * u / (1.0 + lam * u) - u
            phi_alt = math.exp(beta) * u - math.exp(beta) * u / (1.0 + lam * u)
            worst = max(worst,
                        float(np.max(np.abs(drift_gap_integrand(beta, u) - psi_alt))),
                        float(np.max(np.abs(annealed_gap_integrand(beta, u) - phi_alt))))
        report("3(dual-forms)", worst <= 1e-12,
               f"max dual-form discrepancy {worst:.2e} <= 1e-12")


class TestCriterion4ExactGridInequalities:
    """100 random ensembles: every grid two-to-one inequality holds with
    slack >= -1e-9 per configuration."""

    def test_hundred_random_ensembles(self):
        start = time.perf_counter()
        rng = np.random.default_rng(SEED)
        worst, h = math.inf, unit_ball_radius(1) / 4
        for trial in range(100):
            beta = float(rng.uniform(-2.0, 2.0))
            nu = float(rng.uniform(0.5, 4.0))
            n_paths = int(rng.integers(8, 65))
            ens = random_gibbs_ensemble(seed=3000 + trial, beta=beta, nu=nu,
                                        t=2.0, n_steps=128, n_paths=n_paths)
            rep, _ = field_report(_field_blocks(ens, h), h, 1, delta=0.25,
                                  seed=3000 + trial, replicate=trial)
            worst = min(worst, rep.min_slack())
        elapsed = time.perf_counter() - start
        report("4", worst >= -1e-9,
               f"min slack over 100 ensembles = {worst:.3e} >= -1e-9 "
               f"[{elapsed:.0f}s]")


CFG56 = ExperimentConfig(d=1, beta=0.5, nu=1.0, t=2.0, n_steps=128,
                         n_paths=2000, n_envs=200, seed=SEED)


def comb_se(a, b):
    return math.sqrt(a.std_error ** 2 + b.std_error ** 2)


@pytest.fixture(scope="module")
def cfg56_dp_dbeta():
    """``dp_dbeta(CFG56)`` and its seconds, shared by criteria 5 and 5-exact."""
    start = time.perf_counter()
    est = dp_dbeta(CFG56)
    return est, time.perf_counter() - start


class TestCriterion5DerivativeCrossChecks:
    """Added-point identity and common-random-number finite differences."""

    def test_direct_vs_palm_and_fd(self, cfg56_dp_dbeta):
        est, elapsed = cfg56_dp_dbeta
        direct, palm, fd = (est[f"dp_dbeta_{form}"]
                            for form in ("direct", "palm", "finite_difference"))
        allowance = 0.05 * CFG56.nu * math.exp(CFG56.beta)
        gap_palm = abs(direct.value - palm.value)
        tol_palm = 3.0 * comb_se(direct, palm) + allowance
        gap_fd = abs(direct.value - fd.value)
        tol_fd = 3.0 * comb_se(direct, fd)
        report("5(palm)", gap_palm <= tol_palm,
               f"|direct - palm| = {gap_palm:.4f} <= 3*SE + 0.05 nu e^beta "
               f"= {tol_palm:.4f} [{elapsed:.0f}s]")
        report("5(fd)", gap_fd <= tol_fd,
               f"|direct - fd| = {gap_fd:.2e} <= 3*SE = {tol_fd:.2e}")


def exact_palm(seed=SEED):
    """The exact Palm form of dp/dbeta at CFG56's cell: nu e^beta times the
    field integral of m / (1 + lambda m) over ``transfer_d1``'s field at
    every grid cell of step g = 1/32 (so bin width h = g), averaged over 100
    clouds from ("cloud", i) of ``seed`` on ``oracles.fixed_window``."""
    beta, nu, t, g, n_clouds = CFG56.beta, CFG56.nu, CFG56.t, 1 / 32, 100
    lam, box = math.expm1(beta), fixed_window(t)
    values = np.empty(n_clouds)
    for i in range(n_clouds):
        cloud = sample_poisson(box, nu, substream(seed, "cloud", i))
        exact = transfer_d1(cloud, beta, t, CFG56.n_steps, g, g)
        _, (integral,) = field_report([exact.field], g, 1, 0.25, (lambda m: m / (1.0 + lam * m),))
        values[i] = nu * math.exp(beta) * integral
    return EstimateWithError(float(values.mean()), float(values.std(ddof=1) / math.sqrt(n_clouds)))


class TestCriterion5ExactPalm:
    """Criterion 5's IS Palm and direct estimates (``cfg56_dp_dbeta``) each
    within 3 combined SE of the exact Palm form (``exact_palm``); the Palm
    identity makes the exact Palm mean the true dp/dbeta up to the grid."""

    def test_is_palm_and_direct_match_exact_palm(self, cfg56_dp_dbeta):
        est, _ = cfg56_dp_dbeta
        start = time.perf_counter()
        exact = exact_palm()
        elapsed = time.perf_counter() - start
        for form in ("palm", "direct"):
            value = est[f"dp_dbeta_{form}"]
            gap, tol = abs(value.value - exact.value), 3.0 * comb_se(value, exact)
            report(f"5-exact({form})", gap <= tol,
                   f"|IS {form} {value.value:.4f} - exact palm {exact.value:.4f} "
                   f"(SE {exact.std_error:.4f})| = {gap:.4f} <= 3*SE = {tol:.4f} "
                   f"[{elapsed:.1f}s]")


class TestCriterion6FreeEnergySandwich:
    """nu beta <= p_hat <= annealed estimate, within standard errors."""

    def test_sandwich(self):
        start = time.perf_counter()
        quenched = quenched_free_energy(CFG56)["quenched_free_energy"]
        annealed = annealed_free_energy(CFG56)["annealed_free_energy"]
        lower = CFG56.nu * CFG56.beta
        ok_lower = quenched.value >= lower - 3.0 * quenched.std_error
        ok_upper = quenched.value <= annealed.value + 3.0 * comb_se(quenched, annealed)
        elapsed = time.perf_counter() - start
        report("6", ok_lower and ok_upper,
               f"{lower:.3f} - 3*SE <= p_hat = {quenched.value:.4f} <= "
               f"annealed = {annealed.value:.4f} + 3*SE [{elapsed:.0f}s]")


CFG7 = ExperimentConfig(d=1, beta=1.0, nu=2.0, t=2.0, n_steps=128,
                        n_paths=2000, n_envs=200, seed=SEED)


class TestCriterion7IntensityMonotonicity:
    """Coupled slacks against the linear and exponential envelopes."""

    def test_coupled_slacks(self):
        start = time.perf_counter()
        res = nu_monotonicity(CFG7, nu_lo=1.0)
        lower, upper = res["lower"], res["upper"]
        ok = (lower.value >= -3.0 * lower.std_error
              and upper.value >= -3.0 * upper.std_error)
        elapsed = time.perf_counter() - start
        report("7", ok,
               f"lower slack {lower.value:.4f} (SE {lower.std_error:.4f}), "
               f"upper slack {upper.value:.4f} (SE {upper.std_error:.4f}) "
               f">= -3*SE [{elapsed:.0f}s]")


BETA_CELLS = [(beta, 1.0) for beta in (0.0, 0.5, 1.0, 2.0)]
NU_CELLS = [(0.5, nu) for nu in (1.0, 10.0, 100.0)]


def report_beta_trend(cid, overlaps, elapsed):
    ok = True
    detail = []
    for prev, nxt in zip(overlaps, overlaps[1:]):
        margin = nxt.value - prev.value
        tol = 2.0 * comb_se(prev, nxt)
        ok = ok and margin >= -tol
        detail.append(f"{margin:+.4f}>=-{tol:.4f}")
    report(cid, ok,
           f"overlaps {[round(o.value, 4) for o in overlaps]} adjacent "
           f"margins {detail} [{elapsed:.0f}s]")


def report_nu_trend(cid, overlaps, elapsed):
    ok = True
    for prev, nxt in zip(overlaps, overlaps[1:]):
        ok = ok and nxt.value - prev.value >= -2.0 * comb_se(prev, nxt)
    ok_high = overlaps[-1].value >= 0.5
    report(cid, ok and ok_high,
           f"overlaps {[round(o.value, 4) for o in overlaps]}; "
           f"nu=100 overlap {overlaps[-1].value:.4f} >= 0.5 [{elapsed:.0f}s]")


def is_overlaps(cells, seed=SEED):
    """Criterion 8's IS replica overlap of each (beta, nu) cell."""
    return [localization_scan(
        ExperimentConfig(d=1, beta=b, nu=nu, t=4.0, n_steps=256,
                         n_paths=500, n_envs=100, seed=seed))["replica_overlap"]
        for b, nu in cells]


class TestCriterion8LocalizationTrend:
    """Directional localization checks at desk scale (finite t only)."""

    def test_overlap_nondecreasing_in_beta(self):
        start = time.perf_counter()
        overlaps = is_overlaps(BETA_CELLS)
        report_beta_trend("8(beta-trend)", overlaps, time.perf_counter() - start)

    def test_overlap_grows_with_intensity(self):
        start = time.perf_counter()
        overlaps = is_overlaps(NU_CELLS)
        report_nu_trend("8(nu-trend)", overlaps, time.perf_counter() - start)


def exact_cells(seed=SEED):
    """Criterion 8's cells by the exact d = 1 transfer matrix: each cell's
    replica and favourite overlaps over 100 clouds from ("cloud", i) of
    ``seed`` on ``oracles.fixed_window``, with criterion 8's bin width
    h = r_1 / 4 and grid step g = h / 4.  Both overlaps come from one
    ``field_report``, which asserts the grid two-to-one inequalities on the
    exact field.  beta = 0 does not depend on the cloud, so it is one
    empty-cloud call with SE 0.  Returns {"replica": cells, "favourite": cells}."""
    t, n_steps, n_clouds = 4.0, 256, 100
    h = unit_ball_radius(1) / 4
    g = h / 4
    box = fixed_window(t)

    def overlaps(cloud, beta):
        exact = transfer_d1(cloud, beta, t, n_steps, g, h)
        rep = field_report([exact.field[:, exact.centers]], h, 1, 0.25)[0]
        return rep.replica, rep.favourite

    empty = PointCloud(times=np.empty(0), coords=np.empty((0, 1)), box=box)
    cells = {"replica": {}, "favourite": {}}
    for name, value in zip(cells, overlaps(empty, 0.0)):
        cells[name][0.0, 1.0] = EstimateWithError(value, 0.0)
    for nu, betas in ((1.0, (0.5, 1.0, 2.0)), (10.0, (0.5,)), (100.0, (0.5,))):
        values = np.empty((2, len(betas), n_clouds))
        for i in range(n_clouds):
            cloud = sample_poisson(box, nu, substream(seed, "cloud", i))
            for j, beta in enumerate(betas):
                values[:, j, i] = overlaps(cloud, beta)
        for name, per_beta in zip(cells, values):
            for beta, v in zip(betas, per_beta):
                cells[name][beta, nu] = EstimateWithError(
                    float(v.mean()), float(v.std(ddof=1) / math.sqrt(n_clouds)))
    return cells


@pytest.fixture(scope="module")
def exact_overlaps():
    """``exact_cells`` of SEED and their seconds."""
    start = time.perf_counter()
    cells = exact_cells()
    return cells, time.perf_counter() - start


class TestCriterion8ExactLocalizationTrend:
    """Criterion 8's cells and tolerances on exact d = 1 replica and
    favourite overlaps (``exact_overlaps``); the reported seconds are those
    of all six cells."""

    def test_overlap_nondecreasing_in_beta(self, exact_overlaps):
        cells, elapsed = exact_overlaps
        report_beta_trend("8-exact(beta-trend)", [cells["replica"][c] for c in BETA_CELLS],
                          elapsed)

    def test_overlap_grows_with_intensity(self, exact_overlaps):
        cells, elapsed = exact_overlaps
        report_nu_trend("8-exact(nu-trend)", [cells["replica"][c] for c in NU_CELLS], elapsed)

    def test_favourite_nondecreasing_in_beta(self, exact_overlaps):
        cells, elapsed = exact_overlaps
        report_beta_trend("8-exact-favourite(beta-trend)",
                          [cells["favourite"][c] for c in BETA_CELLS], elapsed)

    def test_favourite_grows_with_intensity(self, exact_overlaps):
        cells, elapsed = exact_overlaps
        report_nu_trend("8-exact-favourite(nu-trend)",
                        [cells["favourite"][c] for c in NU_CELLS], elapsed)


class TestClaimOneCurveSignExact:
    """Claim (i)'s sign argument, exactly in d = 1.  Along a comparison curve
    nu |lambda|^alpha = const the gap psi = nu lambda - p moves as
    dpsi/dbeta = nu e^beta (alpha / lambda) I_alpha, where I_alpha is the
    field integral of ``curve_kernel(alpha, lambda m)`` (time mean).  At
    beta = 0.5, nu = 1 and n_steps = 64 t, for alpha in {1, 1.5, 2.5}
    (alpha(0.5) = 1.7163 lies between them), the kernel has one strict sign
    on (0, lambda], and the mean of dpsi/dbeta over the clouds from
    ("cloud", i) of SEED on ``oracles.fixed_window`` has that sign by 3 SE:
    40 clouds at t = 4, 20 at t = 16.  I_alpha is ``field_report``'s
    integral over the exact field at every grid cell of step g = 1/32, so
    with bin width h = g."""

    def check_sign(self, cid, t, n_clouds):
        start = time.perf_counter()
        beta, nu, n_steps, g = 0.5, 1.0, round(64 * t), 1 / 32
        alphas, lam, box = np.array([1.0, 1.5, 2.5]), math.expm1(beta), fixed_window(t)
        u = np.linspace(0.0, lam, 1001)[1:]
        signs = np.array([np.sign(curve_kernel(alpha, u[0])) for alpha in alphas])
        for alpha, sign in zip(alphas, signs):
            assert np.all(sign * curve_kernel(alpha, u) > 0), alpha
        densities = [lambda m, a=alpha: curve_kernel(a, lam * m) for alpha in alphas]
        rates = np.empty((n_clouds, len(alphas)))
        for i in range(n_clouds):
            cloud = sample_poisson(box, nu, substream(SEED, "cloud", i))
            exact = transfer_d1(cloud, beta, t, n_steps, g, g)
            _, integrals = field_report([exact.field], g, 1, 0.25, densities)
            rates[i] = nu * math.exp(beta) * alphas / lam * np.array(integrals)
        means = rates.mean(axis=0)
        ses = rates.std(axis=0, ddof=1) / math.sqrt(n_clouds)
        elapsed = time.perf_counter() - start
        report(cid, bool(np.all(signs * means > 3.0 * ses)),
               "; ".join(f"alpha {a}: kernel {'+' if s > 0 else '-'}, dpsi/dbeta "
                         f"{m:+.4f} +- {se:.4f}" for a, s, m, se in zip(alphas, signs, means, ses))
               + f" [{elapsed:.2f}s]")

    def test_field_form_has_the_kernel_sign(self):
        self.check_sign("claim(i)-exact", 4.0, 40)

    def test_field_form_has_the_kernel_sign_at_t16(self):
        self.check_sign("claim(i)-exact(t=16)", 16.0, 20)


class TestCriterion9Determinism:
    """Byte-identical CSV output on rerun and on manifest replay."""

    CONFIG = ("d = 1\nbeta = 0.8\nnu = 1.5\nt = 1\nn_steps = 16\n"
              "paths_per_env = 50\nn_envs = 3\nseed = 31\nmode = localization\n")

    def test_byte_identical_rerun(self, tmp_path):
        config = tmp_path / "run.cfg"
        config.write_text(self.CONFIG)
        outs = [tmp_path / name for name in ("a", "b", "c")]
        assert main(["simulate", str(config), "--out", str(outs[0])]) == 0
        assert main(["simulate", str(config), "--out", str(outs[1])]) == 0
        assert main(["simulate", "--from-manifest", str(outs[0] / "manifest.json"),
                     "--out", str(outs[2])]) == 0
        rerun_same = (outs[0] / "results.csv").read_bytes() \
            == (outs[1] / "results.csv").read_bytes()
        replay_same = (outs[0] / "results.csv").read_bytes() \
            == (outs[2] / "results.csv").read_bytes()
        report("9", rerun_same and replay_same,
               "rerun and manifest replay produced byte-identical results.csv")
