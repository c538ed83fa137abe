"""How often criteria 5 (the dp/dbeta cross-checks), 8 (IS replica overlap)
and 8-exact (exact replica and favourite overlaps) pass on fresh draws.

Reruns each criterion's computation, unchanged but for its seed, with the
seeds SEED + s for s = 1..S (default S = 20), and prints one row per
assertion: the fraction of seeds on which it passes, and the median and
worst margin in units of the assertion's own SE.  The margin is how far the
assertion clears its threshold: (next - previous + 2 SE) / SE for an
adjacent pair of a trend, where SE is the pair's combined SE, and
(overlap - 0.5) / SE for the nu = 100 floor; for criterion 5, with SE the
combined SE of the two estimates compared, (3 SE + 0.05 nu e^beta -
|direct - palm|) / SE and (3 SE - |direct - fd|) / SE.  A margin >= 0
passes.  pytest does not collect this file.  Run from the repository root:

    PYTHONPATH=src python tests/seed_audit.py [S]

S = 20 takes about 6-7 minutes on 2 cores.
"""

import dataclasses
import math
import sys
import time
import warnings

import numpy as np

from poissonpolymer.estimators import dp_dbeta
from test_acceptance import (BETA_CELLS, CFG56, NU_CELLS, SEED, comb_se, exact_cells,
                             is_overlaps)


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
    """Criterion 5's two assertions on ``CFG56`` at ``seed`` -> their margins in SE."""
    est = dp_dbeta(dataclasses.replace(CFG56, seed=seed))
    direct, palm, fd = (est[f"dp_dbeta_{form}"]
                        for form in ("direct", "palm", "finite_difference"))
    allowance = 0.05 * CFG56.nu * math.exp(CFG56.beta)
    se_palm, se_fd = comb_se(direct, palm), comb_se(direct, fd)
    return {("5(palm)", "|direct - palm|"):
            (3.0 * se_palm + allowance - abs(direct.value - palm.value)) / se_palm,
            ("5(fd)", "|direct - fd|"): (3.0 * se_fd - abs(direct.value - fd.value)) / se_fd}


def main(n_seeds):
    # criterion 8's strong-disorder cells warn of degenerate weights on every seed
    warnings.filterwarnings("ignore", "importance weights are degenerate")
    rows = {}
    start = time.perf_counter()
    for s in range(1, n_seeds + 1):
        seed = SEED + s
        for key, margin in criterion5_margins(seed).items():
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
