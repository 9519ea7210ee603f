"""Why coupling works: difference spreads shrink toward the fine end.

The whole multilevel idea rests on one empirical fact: when two adjacent
resolution levels are driven by the same random realization, the spread
of their difference is far smaller than the spread of either level, and
it keeps shrinking as the pair gets finer.  This script measures that
decay on both bundled solver testbeds.
"""

import numpy as np

from mlmckit import BurgersModel, GBMModel, estimate_alpha, unbiased_variance

def decay_table(name, model, n_samples, base):
    seeds = np.arange(base, base + n_samples, dtype=np.uint64)
    levels = list(range(1, model.max_level + 1))
    # One call for every level, the call the executor makes for a term.
    u = dict(zip(levels, model.evaluate_levels(levels, seeds)))
    print(f"{name}: {n_samples} coupled samples, levels 1 (finest) .. {levels[-1]}")
    spreads = []
    for lv in levels[:-1]:
        d = u[lv] - u[lv + 1]
        s = float(np.sqrt(unbiased_variance(d)))
        spreads.append(s)
        print(f"  spread of U_{lv} - U_{lv + 1}: {s:.4e}")
    alpha = estimate_alpha(spreads[0], spreads[1])
    print(f"  implied decay exponent alpha = {alpha:.3f}")
    print()

decay_table("GBM", GBMModel(), 64, base=2024)

# The Burgers runs integrate a PDE per sample per level, so keep the
# ensemble small here; the decay is visible already at 32 samples.
decay_table("Burgers", BurgersModel(), 32, base=2024)
