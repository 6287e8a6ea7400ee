"""Linear subspaces of R^n: pushforward from O(n) and orthogonal complements.

A sequence in O(n) maps to a sequence of k-dimensional subspaces by taking
the image of the fixed reference subspace span(e_1, ..., e_k), i.e. the
first k columns of each matrix.  Equidistribution survives the pushforward,
so these subspace sequences integrate invariant functionals correctly.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

_ORTHO_TOL = 1e-10


@dataclass(frozen=True, eq=False)
class Subspace:
    """A k-dimensional subspace of R^n held as an orthonormal n x k basis.

    Bases are coordinates, not identity: two values with equal column span
    are the same subspace, so comparisons must go through `projector`.
    """

    basis: np.ndarray

    def __post_init__(self) -> None:
        b = np.asarray(self.basis, dtype=float)
        object.__setattr__(self, "basis", b)
        if b.ndim != 2:
            raise ValueError(f"basis must be an n x k matrix, got shape {b.shape}")
        n, k = b.shape
        if not 1 <= k <= n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got n={n}, k={k}")
        defect = np.abs(b.T @ b - np.eye(k)).max()
        if defect > _ORTHO_TOL:
            raise ValueError(f"basis columns are not orthonormal (defect {defect:.2e})")

    @property
    def n(self) -> int:
        return self.basis.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]

    def projector(self) -> np.ndarray:
        """The orthogonal projector B B^T (basis-independent)."""
        return self.basis @ self.basis.T


def beta_k(g: np.ndarray, k: int) -> Subspace:
    """Image of span(e_1, ..., e_k) under the orthogonal matrix g.

    The basis is a copy of the first k columns of g.
    """
    g = np.asarray(g, dtype=float)
    if g.ndim != 2 or g.shape[0] != g.shape[1]:
        raise ValueError(f"need a square orthogonal matrix, got shape {g.shape}")
    n = g.shape[0]
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got n={n}, k={k}")
    return Subspace(basis=g[:, :k].copy())


def complement(sub: Subspace) -> Subspace:
    """The orthogonal complement, satisfying P + P_perp = I: the left
    singular vectors orthogonal to the basis."""
    u, _, _ = np.linalg.svd(sub.basis, full_matrices=True)
    return Subspace(basis=u[:, sub.k :])


def principal_angles(a: Subspace, b: Subspace) -> np.ndarray:
    """Principal angles (radians, increasing) between two subspaces."""
    if a.n != b.n:
        raise ValueError(f"ambient dimensions differ: {a.n} vs {b.n}")
    sigma = np.linalg.svd(a.basis.T @ b.basis, compute_uv=False)
    return np.arccos(np.clip(sigma, -1.0, 1.0))[::-1]


def projector_distance(a: Subspace, b: Subspace) -> float:
    """max-entry distance between the projectors of two subspaces."""
    return float(np.abs(a.projector() - b.projector()).max())
