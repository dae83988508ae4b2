# %% [markdown]
# # The log-sphere change of variable
#
# Writing z = (z/|z|, log|z|) trades linear growth for boundedness: the
# chart's Jacobian decays like 1/|z|, so a linear-growth field pulls
# back to a bounded field on the cylinder.  Solving in either chart
# must give the same trajectory, which is the mechanism behind the
# global-existence bound.

# %%
import numpy as np

from roughpaths import (ShiftedMap, SolverConfig, choose_shift,
                        counterexample_field, h1_h2, lift_piecewise_linear,
                        linear_field, solve_rde, sphere_state_projection,
                        transformed_field)

# %% the 1D linear field becomes the constant field (0, 1): d rho = dx
f = linear_field(1.0)
h = transformed_field(f, ShiftedMap(np.zeros(1)))
for w in ([1.0, 0.0], [1.0, 2.5]):
    print("h(theta, rho) =", h.eval(np.asarray(w)).ravel())

# %% the transformed counterexample field is bounded at large radius...
shift = ShiftedMap(np.array([4.0, 0.0]))
hc = transformed_field(counterexample_field(), shift)
rng = np.random.default_rng(3)
for rho in (0.0, 5.0, 10.0, 20.0):
    sup = max(np.linalg.norm(hc.eval(np.concatenate(
        [th / np.linalg.norm(th), [rho]])))
        for th in rng.normal(size=(200, 2)))
    print(f"sup |h| near rho = {rho:>4g}: {sup:.4f}")

# %% ...but its second-order companion is not: it inflates like e^rho,
# which is exactly why the pure-area counter-example can explode
_, h2 = h1_h2(counterexample_field(), shift)
for rho in (0.0, 2.0, 4.0, 6.0):
    sup = max(np.linalg.norm(h2.eval(np.concatenate(
        [th / np.linalg.norm(th), [rho]])))
        for th in rng.normal(size=(200, 2)))
    print(f"sup |h2| near rho = {rho:>3g}: {sup:.4f}")

# %% dual-route solve: original chart vs cylinder chart
field = counterexample_field()
pts = np.concatenate([[0.0], np.cumsum(rng.normal(size=6) * 0.25)])
x = lift_piecewise_linear(pts[:, None], np.linspace(0.0, 1.0, 7))
a = np.array([1.0, 0.0])
cfg = SolverConfig(base_mesh=1024)

sol_y = solve_rde(x, field, a, 1.0, cfg)
shift = choose_shift(a, 1.5 * float(np.max(np.linalg.norm(sol_y.y, axis=1))))
h = transformed_field(field, shift)
sol_z = solve_rde(x, h, shift.state_of(a), 1.0,
                  SolverConfig(base_mesh=1024,
                               state_projection=sphere_state_projection(2)))
mapped = shift.state_of(sol_y.y)
print("\nshift b =", shift.b)
print("dual-route sup difference:", np.max(np.abs(mapped - sol_z.y)))
