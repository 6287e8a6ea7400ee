"""Linear subspaces of R^n: pushforward from O(n) and orthogonal complements.

A sequence in O(n) maps to a sequence of k-dimensional subspaces by taking
the image of the fixed reference subspace span(e_1, ..., e_k), i.e. the
first k columns of each matrix.  Equidistribution survives the pushforward,
so these subspace sequences integrate invariant functionals correctly.

Every function takes a stack: a `Subspace` holds one (n, k) basis or a
(..., n, k) stack of them, and `beta_k` maps a (..., n, n) stack of frames
to the stack of their subspaces.  One frame is the stack with no leading
axes, so there is one code path for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache

import numpy as np

_ORTHO_TOL = 1e-10


@cache
def _identity(k: int) -> np.ndarray:
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True, eq=False, init=False)
class Subspace:
    """k-dimensional subspaces of R^n held as orthonormal n x k bases: one
    (n, k) basis, or a (..., n, k) stack of them.

    Bases are coordinates, not identity: two values with equal column span
    are the same subspace, so comparisons must go through `projector`.
    """

    basis: np.ndarray

    def __init__(self, basis: np.ndarray) -> None:
        b = np.asarray(basis, dtype=float)
        if b.ndim < 2:
            raise ValueError(f"basis must be an n x k matrix or a stack of them, got {b.shape}")
        n, k = b.shape[-2:]
        if not 1 <= k <= n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got n={n}, k={k}")
        # One frame takes ndarray.dot, which skips matmul's per-call set-up.
        gram = b.T.dot(b) if b.ndim == 2 else b.swapaxes(-1, -2) @ b
        gap = gram - _identity(k)
        # The sum of squares bounds every entry, so a sum below tol^2 accepts
        # in one dot product; only a larger sum needs the entrywise defect.
        if not np.vdot(gap, gap) < _ORTHO_TOL**2:
            defect = np.abs(gap).max()
            if not defect <= _ORTHO_TOL:
                raise ValueError(f"basis columns are not orthonormal (defect {defect:.2e})")
        object.__setattr__(self, "basis", b)

    @property
    def n(self) -> int:
        return self.basis.shape[-2]

    @property
    def k(self) -> int:
        return self.basis.shape[-1]

    def projector(self) -> np.ndarray:
        """The orthogonal projectors B B^T (basis-independent)."""
        return self.basis @ self.basis.swapaxes(-1, -2)


def beta_k(g: np.ndarray, k: int) -> Subspace:
    """Images of span(e_1, ..., e_k) under the orthogonal matrices g, one
    (n, n) frame or a (..., n, n) stack.

    The basis is a copy of the first k columns of each frame.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim < 2 or g.shape[-2] != g.shape[-1]:
        raise ValueError(f"need square orthogonal matrices, got shape {g.shape}")
    n = g.shape[-1]
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got n={n}, k={k}")
    return Subspace(g[..., :k].copy())


def complement(sub: Subspace) -> Subspace:
    """The orthogonal complements, satisfying P + P_perp = I: the left
    singular vectors orthogonal to each basis."""
    u, _, _ = np.linalg.svd(sub.basis, full_matrices=True)
    return Subspace(u[..., sub.k :])


def principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Principal angles (radians, increasing along the last axis) between
    two subspaces, or between matching members of stacks that broadcast."""
    if a.n != b.n:
        raise ValueError(f"ambient dimensions differ: {a.n} vs {b.n}")
    sigma = np.linalg.svd(a.basis.swapaxes(-1, -2) @ b.basis, compute_uv=False)
    return np.arccos(np.clip(sigma, -1.0, 1.0))[..., ::-1]
