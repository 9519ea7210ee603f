"""Full pipeline on the geometric-Brownian-motion testbed.

A small coupled pilot estimates (delta, e, alpha) straight from the
model, a plan is sized from those estimates, and the coupled ensemble
is executed.  The exact answer is known here (E[S_T] = S0 exp(r T)), so
the a-priori error bound can be checked against reality, and the
multilevel run can be compared with a classical single-level run of the
same nominal accuracy.
"""

import math

from mlmckit import (
    GBMModel,
    pilot_estimate_parameters,
    plan_for_strategy,
    run_classical_mc,
    run_mlmc,
)

model = GBMModel()  # S0=1, drift 0.05, vol 0.2, T=1; 256 fine steps, 4 levels
exact = model.spec.exact_mean

params = pilot_estimate_parameters(model, pilot_samples=256, base_seed=1)
print(f"pilot:   delta={params.delta:.4g}  e={params.e:.4g}  alpha={params.alpha:.3f}")

plan = plan_for_strategy("S2", params, max_levels=model.max_level)
print(f"plan:    L={plan.L}  M={plan.M}  predicted load={plan.relative_load:.4g}")

report = run_mlmc(model, plan, base_seed=1)
err = abs(report.estimate - exact)
print(f"run:     estimate={report.estimate:.6f}  exact={exact:.6f}")
print(f"         |error|={err:.2e}  a-priori bound={report.a_priori_error_bound:.2e}")
print(f"         std error={report.estimated_std_error:.2e}  load={report.realized_load:.4g}")

# classical baseline at the plan's own statistical budget
m_classical = plan_for_strategy("ClassicalMC", params).M[0]
mc = run_classical_mc(model, level=1, M=m_classical, base_seed=1)
print()
print(f"classical ({m_classical} finest solves): estimate={mc.estimate:.6f}  "
      f"load={mc.realized_load:.4g}")
ratio = report.realized_load / mc.realized_load
agree = abs(mc.estimate - report.estimate) / math.hypot(
    mc.estimated_std_error, report.estimated_std_error
)
print(f"multilevel load is {100 * ratio:.1f}% of classical; estimates agree "
      f"within {agree:.2f} combined std errors")
