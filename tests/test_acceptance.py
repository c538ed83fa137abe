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
from poissonpolymer.estimators import (
    ExperimentConfig,
    annealed_free_energy,
    dp_dbeta,
    localization_scan,
    nu_monotonicity,
    quenched_free_energy,
)
from poissonpolymer.geometry import unit_ball_radius
from poissonpolymer.polymer import field_report

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
        worst = math.inf
        for trial in range(100):
            beta = float(rng.uniform(-2.0, 2.0))
            nu = float(rng.uniform(0.5, 4.0))
            n_paths = int(rng.integers(8, 65))
            ens = random_gibbs_ensemble(seed=3000 + trial, beta=beta, nu=nu,
                                        t=2.0, n_steps=128, n_paths=n_paths)
            rep, _ = field_report(ens, unit_ball_radius(1) / 4, delta=0.25, tol=1e-9,
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


class TestCriterion5DerivativeCrossChecks:
    """Added-point identity and common-random-number finite differences."""

    def test_direct_vs_palm_and_fd(self):
        start = time.perf_counter()
        est = dp_dbeta(CFG56)
        direct, palm, fd = (est[f"dp_dbeta_{form}"]
                            for form in ("direct", "palm", "finite_difference"))
        allowance = 0.05 * CFG56.nu * math.exp(CFG56.beta)
        gap_palm = abs(direct.value - palm.value)
        tol_palm = 3.0 * comb_se(direct, palm) + allowance
        gap_fd = abs(direct.value - fd.value)
        tol_fd = 3.0 * comb_se(direct, fd)
        elapsed = time.perf_counter() - start
        report("5(palm)", gap_palm <= tol_palm,
               f"|direct - palm| = {gap_palm:.4f} <= 3*SE + 0.05 nu e^beta "
               f"= {tol_palm:.4f} [{elapsed:.0f}s]")
        report("5(fd)", gap_fd <= tol_fd,
               f"|direct - fd| = {gap_fd:.2e} <= 3*SE = {tol_fd:.2e}")


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


class TestCriterion7IntensityMonotonicity:
    """Coupled slacks against the linear and exponential envelopes."""

    def test_coupled_slacks(self):
        start = time.perf_counter()
        cfg = ExperimentConfig(d=1, beta=1.0, nu=2.0, t=2.0, n_steps=128,
                               n_paths=2000, n_envs=200, seed=SEED)
        res = nu_monotonicity(cfg, nu_lo=1.0)
        lower, upper = res["lower"], res["upper"]
        ok = (lower.value >= -3.0 * lower.std_error
              and upper.value >= -3.0 * upper.std_error)
        elapsed = time.perf_counter() - start
        report("7", ok,
               f"lower slack {lower.value:.4f} (SE {lower.std_error:.4f}), "
               f"upper slack {upper.value:.4f} (SE {upper.std_error:.4f}) "
               f">= -3*SE [{elapsed:.0f}s]")


class TestCriterion8LocalizationTrend:
    """Directional localization checks at desk scale (finite t only)."""

    def overlaps(self, cells):
        return [localization_scan(
            ExperimentConfig(d=1, beta=b, nu=nu, t=4.0, n_steps=256,
                             n_paths=500, n_envs=100, seed=SEED))["replica_overlap"]
            for b, nu in cells]

    def test_overlap_nondecreasing_in_beta(self):
        start = time.perf_counter()
        betas = [0.0, 0.5, 1.0, 2.0]
        overlaps = self.overlaps([(b, 1.0) for b in betas])
        ok = True
        detail = []
        for prev, nxt in zip(overlaps, overlaps[1:]):
            margin = nxt.value - prev.value
            tol = 2.0 * comb_se(prev, nxt)
            ok = ok and margin >= -tol
            detail.append(f"{margin:+.4f}>=-{tol:.4f}")
        elapsed = time.perf_counter() - start
        report("8(beta-trend)", ok,
               f"overlaps {[round(o.value, 4) for o in overlaps]} adjacent "
               f"margins {detail} [{elapsed:.0f}s]")

    def test_overlap_grows_with_intensity(self):
        start = time.perf_counter()
        nus = [1.0, 10.0, 100.0]
        overlaps = self.overlaps([(0.5, nu) for nu in nus])
        ok = True
        for prev, nxt in zip(overlaps, overlaps[1:]):
            ok = ok and nxt.value - prev.value >= -2.0 * comb_se(prev, nxt)
        ok_high = overlaps[-1].value >= 0.5
        elapsed = time.perf_counter() - start
        report("8(nu-trend)", ok and ok_high,
               f"overlaps {[round(o.value, 4) for o in overlaps]}; "
               f"nu=100 overlap {overlaps[-1].value:.4f} >= 0.5 [{elapsed:.0f}s]")


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
