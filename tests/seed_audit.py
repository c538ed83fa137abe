"""How often criteria 5 and 5-exact (the dp/dbeta cross-checks), 6 (the
free-energy sandwich), 7 (intensity monotonicity), 8 (IS replica overlap)
and 8-exact (exact replica and favourite overlaps) pass on fresh draws.

Reruns each criterion's computation, unchanged but for its seed, with the
seeds SEED + s for s = 1..S (default S = 20), and prints one row per
assertion: the fraction of seeds on which it passes, and the median and
worst margin in units of the assertion's own SE.  The margin is how far the
assertion clears its threshold: (next - previous + 2 SE) / SE for an
adjacent pair of a trend, where SE is the pair's combined SE, and
(overlap - 0.5) / SE for the nu = 100 floor; for criteria 5 and 5-exact,
with SE the combined SE of the two estimates compared, (3 SE + 0.05 nu
e^beta - |direct - palm|) / SE, (3 SE - |direct - fd|) / SE and
(3 SE - |IS - exact palm|) / SE; for criterion 6, (p_hat - nu beta) / SE + 3
and (annealed - p_hat) / SE + 3; for criterion 7, slack / SE + 3.  A margin
>= 0 passes.  pytest does not collect this file.  Run from the repository
root:

    PYTHONPATH=src python tests/seed_audit.py [S]

S = 20 takes about 8 minutes on 2 cores.
"""

import dataclasses
import math
import sys
import time
import warnings

import numpy as np

from oracles import nu_monotonicity
from poissonpolymer.estimators import annealed_free_energy, dp_dbeta, quenched_free_energy
from test_acceptance import (BETA_CELLS, CFG7, CFG56, NU_CELLS, SEED, comb_se, exact_cells,
                             exact_palm, is_overlaps)


def margins(overlaps, cells):
    """Each assertion of a trend over ``cells`` -> its margin in SE."""
    out = {}
    for (a, prev), (b, nxt) in zip(zip(cells, overlaps), zip(cells[1:], overlaps[1:])):
        se = comb_se(prev, nxt)
        out[f"{a} -> {b}"] = (nxt.value - prev.value + 2.0 * se) / se
    if cells == NU_CELLS:
        last = overlaps[-1]
        out[f"{cells[-1]} >= 0.5"] = (last.value - 0.5) / last.std_error
    return out


def criterion5_margins(seed):
    """The assertions of criteria 5 and 5-exact on ``CFG56`` at ``seed`` ->
    their margins in SE."""
    est = dp_dbeta(dataclasses.replace(CFG56, seed=seed))
    direct, palm, fd = (est[f"dp_dbeta_{form}"]
                        for form in ("direct", "palm", "finite_difference"))
    exact = exact_palm(seed)
    allowance = 0.05 * CFG56.nu * math.exp(CFG56.beta)
    se_palm, se_fd = comb_se(direct, palm), comb_se(direct, fd)
    out = {("5(palm)", "|direct - palm|"):
           (3.0 * se_palm + allowance - abs(direct.value - palm.value)) / se_palm,
           ("5(fd)", "|direct - fd|"): (3.0 * se_fd - abs(direct.value - fd.value)) / se_fd}
    for form, value in (("palm", palm), ("direct", direct)):
        se = comb_se(value, exact)
        out[f"5-exact({form})", f"|IS {form} - exact palm|"] = (
            3.0 * se - abs(value.value - exact.value)) / se
    return out


def criterion6_7_margins(seed):
    """The assertions of criteria 6 on ``CFG56`` and 7 on ``CFG7`` at
    ``seed`` -> their margins in SE."""
    quenched = quenched_free_energy(dataclasses.replace(CFG56, seed=seed))["quenched_free_energy"]
    annealed = annealed_free_energy(dataclasses.replace(CFG56, seed=seed))["annealed_free_energy"]
    slacks = nu_monotonicity(dataclasses.replace(CFG7, seed=seed), nu_lo=1.0)
    return {("6", "p_hat >= nu beta"):
            (quenched.value - CFG56.nu * CFG56.beta) / quenched.std_error + 3.0,
            ("6", "p_hat <= annealed"):
            (annealed.value - quenched.value) / comb_se(quenched, annealed) + 3.0,
            **{("7", f"{side} slack >= 0"): slacks[side].value / slacks[side].std_error + 3.0
               for side in ("lower", "upper")}}


def main(n_seeds):
    # criterion 8's strong-disorder cells warn of degenerate weights on every seed
    warnings.filterwarnings("ignore", "importance weights are degenerate")
    rows = {}
    start = time.perf_counter()
    for s in range(1, n_seeds + 1):
        seed = SEED + s
        for key, margin in {**criterion5_margins(seed), **criterion6_7_margins(seed)}.items():
            rows.setdefault(key, []).append(margin)
        exact = exact_cells(seed)
        for trend, cells in (("beta-trend", BETA_CELLS), ("nu-trend", NU_CELLS)):
            runs = [("8", is_overlaps(cells, seed))]
            runs += [(f"8-exact{suffix}", [exact[name][c] for c in cells])
                     for name, suffix in (("replica", ""), ("favourite", "-favourite"))]
            for cid, overlaps in runs:
                for assertion, margin in margins(overlaps, cells).items():
                    rows.setdefault((f"{cid}({trend})", assertion), []).append(margin)
        print(f"seed SEED + {s} done [{time.perf_counter() - start:.0f}s]", file=sys.stderr)
    print(f"{n_seeds} seeds SEED + 1..{n_seeds}, SEED = {SEED}; margins in SE, pass at >= 0; "
          f"{time.perf_counter() - start:.0f}s")
    print(f"{'criterion':32} {'assertion (beta, nu)':32} {'pass':>6} {'median':>8} "
          f"{'worst':>8}")
    for (cid, assertion), values in rows.items():
        values = np.array(values)
        print(f"{cid:32} {assertion:32} {np.mean(values >= 0):6.0%} "
              f"{np.median(values):8.2f} {values.min():8.2f}")


if __name__ == "__main__":
    main(int(sys.argv[1]) if len(sys.argv) > 1 else 20)
