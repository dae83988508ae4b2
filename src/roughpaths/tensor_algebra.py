"""Arithmetic in the step-2 truncated tensor algebra over R^m.

An element is (scalar, level1, level2) with level1 a vector of length m
and level2 an m-by-m matrix.  Elements with scalar part 1 form a Lie
group under the truncated tensor product; that group carries the level-2
signatures of paths, and all increments of a rough path live in it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
    "GroupElement2",
    "identity",
    "mul",
    "inv",
    "increment",
    "antisym_part",
    "hom_norm",
]


@dataclass(frozen=True)
class GroupElement2:
    """Group element (1, a1, a2): a level-2 signature increment."""

    level1: np.ndarray
    level2: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "level1", np.asarray(self.level1, dtype=float))
        object.__setattr__(self, "level2", np.asarray(self.level2, dtype=float))
        m = self.level1.shape[0]
        if self.level2.shape != (m, m):
            raise ValueError(
                f"level2 shape {self.level2.shape} does not match level1 length {m}"
            )

    @property
    def m(self) -> int:
        return self.level1.shape[0]


def identity(m: int) -> GroupElement2:
    """Identity of the level-2 group over R^m."""
    return GroupElement2(np.zeros(m), np.zeros((m, m)))


def mul(a: GroupElement2, b: GroupElement2) -> GroupElement2:
    """Truncated tensor product of two group elements.

    level1 parts add; level2 parts add plus the cross term a1 (x) b1.
    """
    if a.m != b.m:
        raise ValueError(f"dimension mismatch: {a.m} vs {b.m}")
    return GroupElement2(*_mul((a.level1, a.level2), (b.level1, b.level2)))


def _mul(a, b):
    """The group law on (level1, level2) pairs of arrays, one element or
    rows of them (any leading axes): (a1 + b1, (a2 + b2) + a1 (x) b1),
    each outer-product entry one product.  a2 None (a level-1 path)
    gives level 2 None."""
    d1 = a[0] + b[0]
    if a[1] is None:
        return d1, None
    return d1, (a[1] + b[1]) + np.einsum("...i,...j->...ij", a[0], b[0])


def _half_square(u):
    """0.5 u (x) u, one vector or rows of them (any leading axes): one
    product u_i u_j, halved; the level 2 of a straight segment with
    increment u."""
    q = np.einsum("...i,...j->...ij", u, u)
    q *= 0.5
    return q


def inv(a: GroupElement2) -> GroupElement2:
    """Group inverse: (1, u, b)^-1 = (1, -u, u (x) u - b)."""
    u = a.level1
    return GroupElement2(-u, np.outer(u, u) - a.level2)


def increment(x_s: GroupElement2, x_t: GroupElement2) -> GroupElement2:
    """Increment x_s^-1 (x) x_t between two absolute signature values."""
    return mul(inv(x_s), x_t)


def antisym_part(a) -> np.ndarray:
    """Antisymmetric part of the level-2 matrix (the signed-area part)."""
    b = a.level2
    return 0.5 * (b - b.T)


def hom_norm(a: GroupElement2) -> float:
    """Homogeneous norm max(|level1|_2, sqrt(||level2||_F)).

    Scales linearly under the dilation (u, b) -> (lam*u, lam^2*b) and is
    subadditive under mul.
    """
    n1 = float(np.linalg.norm(a.level1))
    n2 = float(np.sqrt(np.linalg.norm(a.level2, "fro")))
    return max(n1, n2)
