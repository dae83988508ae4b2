"""The log-sphere change of variable and the fields it induces.

The map (theta, rho) = (z/|z|, log|z|) sends R^d minus the origin onto
the cylinder S^(d-1) x R.  Pulled back through it, a linear-growth field
on R^d becomes a bounded field on the cylinder: the Jacobian decays like
1/|z| exactly fast enough to absorb linear growth.  That is the engine
behind the global-existence bound for geometric drivers, and this module
provides the map, its first and second derivatives, the transformed
first- and second-order fields, and the shift that keeps trajectories
away from the origin.

Off the cylinder the transformed field is extended by normalizing the
angular component, h(q, rho) := h(q/|q|, rho), which is smooth for
q != 0 and restricts to the same field on the cylinder; a solver should
renormalize the angular part of its state each step (see
``sphere_state_projection``).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .vector_fields import FieldBounds, SecondOrderField, VectorField

__all__ = [
    "LogSphereCoords",
    "ShiftedMap",
    "phi",
    "z_of",
    "grad_phi",
    "grad2_phi",
    "transformed_field",
    "h1_h2",
    "choose_shift",
    "sphere_state_projection",
    "calibrated_shift",
]

_RHO_OVERFLOW = 700.0


@dataclass(frozen=True)
class LogSphereCoords:
    """Point on the cylinder: unit vector theta plus log-radius rho."""

    theta: np.ndarray
    rho: float

    def __post_init__(self):
        th = np.asarray(self.theta, dtype=float)
        n = np.linalg.norm(th)
        if n == 0 or not np.isfinite(n):
            raise ValueError("theta must be a nonzero finite vector")
        object.__setattr__(self, "theta", th / n)
        object.__setattr__(self, "rho", float(self.rho))

    @property
    def d(self) -> int:
        return len(self.theta)

    def as_state(self) -> np.ndarray:
        """Concatenated solver state (theta_1..theta_d, rho)."""
        return np.concatenate([self.theta, [self.rho]])


def phi(z) -> LogSphereCoords:
    """(z/|z|, log|z|); domain error at the origin."""
    z = np.asarray(z, dtype=float)
    r = float(np.linalg.norm(z))
    if r == 0.0:
        raise ValueError("the log-sphere map is undefined at the origin")
    return LogSphereCoords(z / r, math.log(r))


def z_of(c: LogSphereCoords) -> np.ndarray:
    """Inverse map exp(rho) * theta, guarding the exponential."""
    if abs(c.rho) > _RHO_OVERFLOW:
        raise OverflowError(f"|rho| = {abs(c.rho):.3g} exceeds exp range")
    return math.exp(c.rho) * c.theta


def grad_phi(z) -> np.ndarray:
    """Jacobian of the map, shape (d+1, d).

    Rows 1..d: d theta_i / d z_j = delta_ij / |z| - z_i z_j / |z|^3;
    last row: d rho / d z_j = z_j / |z|^2.  Every entry decays like
    1/|z|.
    """
    z = np.asarray(z, dtype=float)
    r = math.sqrt(z.dot(z))
    if r == 0.0:
        raise ValueError("gradient undefined at the origin")
    d = len(z)
    out = np.empty((d + 1, d))
    out[:d] = np.eye(d) / r - np.multiply.outer(z, z) / r ** 3
    out[d] = z / r ** 2
    return out


def grad2_phi(z) -> np.ndarray:
    """Second derivatives, shape (d+1, d, d): out[k, j, e] = d^2 phi_k / dz_j dz_e."""
    z = np.asarray(z, dtype=float)
    r = math.sqrt(z.dot(z))
    if r == 0.0:
        raise ValueError("second derivatives undefined at the origin")
    d = len(z)
    eye = np.eye(d)
    out = np.empty((d + 1, d, d))
    out[:d] = (-(eye[:, :, None] * z[None, None, :]
                 + eye[:, None, :] * z[None, :, None]
                 + eye[None, :, :] * z[:, None, None]) / r ** 3
               + 3.0 * z[:, None, None] * z[None, :, None]
               * z[None, None, :] / r ** 5)
    out[d] = eye / r ** 2 - 2.0 * np.outer(z, z) / r ** 4
    return out


@dataclass(frozen=True)
class ShiftedMap:
    """Shifted chart psi(y) = phi(b + y), defined where |b + y| >= r_min."""

    b: np.ndarray
    r_min: float = 1.0

    def __post_init__(self):
        object.__setattr__(self, "b", np.asarray(self.b, dtype=float))

    @property
    def d(self) -> int:
        return len(self.b)

    def psi(self, y) -> LogSphereCoords:
        return phi(self.b + np.asarray(y, dtype=float))

    def state_of(self, y) -> np.ndarray:
        return self.psi(y).as_state()

    def y_of_state(self, w) -> np.ndarray:
        w = np.asarray(w, dtype=float)
        return z_of(LogSphereCoords(w[:-1], w[-1])) - self.b


def choose_shift(a, predicted_radius: float) -> ShiftedMap:
    """Shift guaranteeing |b + y| >= 1 for trajectories within the radius.

    b = (predicted_radius + |a| + 1) e_1, so any y with
    |y| <= predicted_radius + |a| keeps |b + y| >= 1.
    """
    a = np.asarray(a, dtype=float)
    if predicted_radius < 0:
        raise ValueError("predicted_radius must be nonnegative")
    b = np.zeros(len(a))
    b[0] = predicted_radius + float(np.linalg.norm(a)) + 1.0
    return ShiftedMap(b, 1.0)


def sphere_state_projection(d: int):
    """Per-step renormalizer of the angular part of a (d+1)-state."""

    def project(w):
        w = np.asarray(w, dtype=float)
        q = w[:d]
        n = math.sqrt(q.dot(q))
        if n == 0 or not math.isfinite(n):
            return w
        out = w.copy()
        out[:d] /= n
        return out

    return project


def _split_state(w, d):
    q = np.asarray(w[:d], dtype=float)
    nq = math.sqrt(q.dot(q))
    if nq == 0.0:
        raise ValueError("angular component of the state vanished")
    return q / nq, float(w[d])


def transformed_field(f: VectorField, shift: ShiftedMap) -> VectorField:
    """Pull a field on R^d back to the cylinder chart.

    h(theta, rho) = grad phi(z) f(z - b) with z = exp(rho) theta/|theta|;
    the normalization extends h off the cylinder, and the gradient's
    angular block picks up the tangential projector accordingly.
    """
    d, m = f.d, f.m

    def _eval(w):
        theta, rho = _split_state(w, d)
        if abs(rho) > _RHO_OVERFLOW:
            raise OverflowError("rho out of exp range during field evaluation")
        z = math.exp(rho) * theta
        return grad_phi(z) @ f.eval(z - shift.b)

    def _grad(w):
        theta, rho = _split_state(w, d)
        z = math.exp(rho) * theta
        fe = f.eval(z - shift.b)
        gr = f.grad(z - shift.b)
        dphi = grad_phi(z)
        d2phi = grad2_phi(z)
        # dH[k, j, e] = d/dz_e of (dphi[k, a] fe[a, j])
        dH_dz = (np.einsum("kae,aj->kje", d2phi, fe)
                 + np.einsum("ka,aje->kje", dphi, gr))
        # chain through z(q, rho); the angular block carries the
        # normalization projector (I - theta theta^T)/|q| with |q| = 1
        q = np.asarray(w[:d], dtype=float)
        nq = math.sqrt(q.dot(q))
        jz = np.empty((d, d + 1))
        jz[:, :d] = math.exp(rho) * (np.eye(d) - np.outer(theta, theta)) / nq
        jz[:, d] = z
        return np.einsum("kje,ec->kjc", dH_dz, jz)

    return VectorField(d + 1, m, _eval, _grad, gamma=f.gamma,
                       name=f"logsphere({f.name})")


def h1_h2(f: VectorField, shift: ShiftedMap):
    """Transformed first- and second-order fields for the corrected route.

    h1 drives the rough part against the geometric driver; h2(theta,rho)
    = grad phi(z) (f . grad f)(z - b) multiplies the area drift.  h2 is
    bounded only when f . grad f has at most linear growth; for
    quadratically growing derived fields it inflates like exp(rho), which
    is the failure mode the explosion example exhibits.
    """
    from .vector_fields import f_dot_grad_f

    h1 = transformed_field(f, shift)
    fdf = f_dot_grad_f(f)
    d = f.d

    def _eval2(w):
        theta, rho = _split_state(w, d)
        if abs(rho) > _RHO_OVERFLOW:
            raise OverflowError("rho out of exp range during field evaluation")
        z = math.exp(rho) * theta
        return np.einsum("ka,aij->kij", grad_phi(z), fdf.eval(z - shift.b))

    return h1, SecondOrderField(d + 1, f.m, _eval2)


def calibrated_shift(f: VectorField, x, a, T: float, cfg=None,
                     samples: int = 4000, seed: int = 0,
                     rho_margin: float = 2.0) -> tuple[ShiftedMap, float]:
    """Shift sized from the transformed field's own a-priori bound.

    Starts from the minimal shift, samples the transformed field's norms
    over the cylinder region a trajectory obeying the bound could visit,
    applies the bounded-field sup bound once, and converts the resulting
    log-radius excursion back into a predicted radius.  Returns the final
    shift and that radius.
    """
    from .rde_solver import SolverConfig, apriori_sup_bound

    cfg = cfg or SolverConfig()
    a = np.asarray(a, dtype=float)
    shift0 = choose_shift(a, 0.0)
    h0 = transformed_field(f, shift0)
    rho0 = phi(shift0.b + a).rho
    rng = np.random.default_rng(seed)
    sup_h = 0.0
    sup_grad = 0.0
    for _ in range(samples):
        th = rng.normal(size=f.d)
        th /= np.linalg.norm(th)
        rho = rng.uniform(-1.0, rho0 + rho_margin)
        w = np.concatenate([th, [rho]])
        sup_h = max(sup_h, float(np.linalg.norm(h0.eval(w))))
        sup_grad = max(sup_grad, float(np.linalg.norm(h0.grad(w))))
    bounds = FieldBounds(f_inf=sup_h, grad_inf=sup_grad)
    excursion = apriori_sup_bound(bounds, x, T, cfg)
    radius = math.exp(min(rho0 + excursion, _RHO_OVERFLOW)) + float(
        np.linalg.norm(shift0.b))
    return choose_shift(a, radius), radius
