# %% [markdown]
# # Global existence under geometric drivers
#
# For geometric drivers, linear growth of the field is enough for
# global solutions, with sup|y| controlled by exp(C ||x||^p omega).
# Scaling one driver by lambda in {1, 2, 4, 8} sweeps the bound's
# abscissa, and no scaling may explode: an explosion is the one outcome
# a finite run can hold against the bound, whose constant C is not
# known.  The affine envelope of log(sup|y| + 1) in
# ||x_lam||^p * omega(0, T), its intercept lifted over every run, is
# shown as information.  The same field explodes under the pure-area
# driver of the previous demo, so the geometry of the driver is doing
# real work here.

# %%
import os

import numpy as np

from roughpaths import (SolverConfig, counterexample_field,
                        growth_bound_check, lift_piecewise_linear)
from roughpaths.svg import line_plot

rng = np.random.default_rng(7)
pts = np.concatenate([[0.0], np.cumsum(rng.normal(size=8) * 0.12)])
x = lift_piecewise_linear(pts[:, None], np.linspace(0.0, 5.0, 9))

rep = growth_bound_check(counterexample_field(), x, np.array([1.0, 0.0]),
                         5.0, SolverConfig(base_mesh=4096),
                         lambdas=(1.0, 2.0, 4.0, 8.0))

print("lambda   ||x||_p      sup|y|      log(sup+1)  explosion")
for r in rep.rows:
    print(f"{r['lam']:>6g}   {r['pvar']:.4f}     {r['sup_y']:.4f}     "
          f"{r['log_sup']:.4f}      {r['explosion']}")
print(f"\nenvelope fit: c1 = {rep.c1:.4f}, c2 = {rep.c2:.4f}")
print("explosions:", "detected" if rep.any_explosion else "none")

# %%
os.makedirs("demos/out", exist_ok=True)
s = [r["s"] for r in rep.rows]
line_plot("demos/out/growth_envelope.svg",
          [("log(sup|y|+1)", s, [r["log_sup"] for r in rep.rows]),
           ("affine envelope", s, [rep.c1 + rep.c2 * v for v in s])],
          title="growth stays under an affine log envelope",
          xlabel="||x||^p omega(0,T)", ylabel="log(sup|y|+1)")
print("wrote demos/out/growth_envelope.svg")
