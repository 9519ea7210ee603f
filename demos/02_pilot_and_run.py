"""Full pipeline on the geometric-Brownian-motion testbed.

A small coupled pilot estimates (delta, e, alpha) straight from the
model, a plan is sized from those estimates, and the coupled ensemble
is executed.  The answer the estimators target is known here, the level-1
Euler mean E[S_N] = S0 (1 + r T / N)^N of N fine steps, so the a-priori
error bound can be checked against reality, and the
multilevel run can be compared with a classical single-level run of the
same nominal accuracy.
"""

import math

from mlmckit import GBMModel, pilot_estimate_parameters, plan_for_strategy, run_mlmc

model = GBMModel()  # S0=1, drift 0.05, vol 0.2, T=1; 256 fine steps, 4 levels
spec = model.spec
target = spec.S0 * (1.0 + spec.r_drift * spec.T / spec.steps_at_finest) ** spec.steps_at_finest

params = pilot_estimate_parameters(model, pilot_samples=256, base_seed=1)
print(f"pilot:   delta={params.delta:.4g}  e={params.e:.4g}  alpha={params.alpha:.3f}")

plan = plan_for_strategy("S2", params, max_levels=model.max_level)
print(f"plan:    L={plan.L}  M={plan.M}  predicted load={plan.relative_load:.4g}")

report = run_mlmc(model, plan, base_seed=1)
err = abs(report.estimate - target)
print(f"run:     estimate={report.estimate:.6f}  target={target:.6f}")
print(f"         |error|={err:.2e}  a-priori bound={report.a_priori_error_bound:.2e}")
print(f"         std error={report.estimated_std_error:.2e}  load={report.realized_load:.4g}")

# classical baseline at the plan's own statistical budget: the same runner
mc = run_mlmc(model, plan_for_strategy("ClassicalMC", params), base_seed=1)
print()
print(f"classical ({mc.plan.M[0]} finest solves): estimate={mc.estimate:.6f}  "
      f"load={mc.realized_load:.4g}")
print(f"         a-priori bound={mc.a_priori_error_bound:.2e} "
      f"(multilevel {report.a_priori_error_bound:.2e})")
ratio = report.realized_load / mc.realized_load
agree = abs(mc.estimate - report.estimate) / math.hypot(
    mc.estimated_std_error, report.estimated_std_error
)
print(f"multilevel load is {100 * ratio:.1f}% of classical; estimates agree "
      f"within {agree:.2f} combined std errors")
