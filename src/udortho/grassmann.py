"""Linear subspaces of R^n: the pushforward of O(n) frames to G(n, k).

A sequence in O(n) maps to a sequence of k-dimensional subspaces by taking
the image of the fixed reference subspace span(e_1, ..., e_k), i.e. the
first k columns of each matrix.  Equidistribution survives the pushforward,
so these subspace sequences integrate invariant functionals correctly.

`beta_k` maps one (n, n) frame or a (..., n, n) stack to a `Subspace`, which
holds the (n, k) basis or the (..., n, k) stack of them and refuses any
basis whose columns are not orthonormal.  One frame is the stack with no
leading axes, so there is one code path for both.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from numbers import Integral

import numpy as np

_ORTHO_TOL = 1e-10
_SSQ_TOL = _ORTHO_TOL**2
_FLOAT = np.dtype(float)


@cache
def _identity(k: int) -> np.ndarray:
    eye = np.eye(k)
    eye.flags.writeable = False
    return eye


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Subspace:
    """k-dimensional subspaces of R^n held as orthonormal n x k bases: one
    (n, k) basis, or a (..., n, k) stack of them.

    Bases are coordinates, not identity: two values with equal column span
    are the same subspace, so compare spans (for example by their
    projectors B B^T), not bases or values.
    """

    basis: np.ndarray

    def __init__(self, basis: np.ndarray) -> None:
        b = np.asarray(basis)
        if b.dtype is not _FLOAT:
            # a complex basis is refused, not cut to its real part
            if b.dtype.kind == "c":
                raise ValueError(f"need a real array, got {b.dtype}")
            b = b.astype(float)
        shape = b.shape
        if len(shape) < 2:
            raise ValueError(f"basis must be an n x k matrix or a stack of them, got {shape}")
        n, k = shape[-2:]
        if not 1 <= k <= n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got n={n}, k={k}")
        # One frame takes ndarray.dot, which skips matmul's per-call set-up;
        # the Gram product is fresh, so the identity comes off in place.
        gap = b.T.dot(b) if len(shape) == 2 else b.swapaxes(-1, -2) @ b
        gap -= _identity(k)
        # The sum of squares bounds every entry, so a sum below tol^2 accepts
        # in one dot product; only a larger sum needs the entrywise defect.
        flat = gap.ravel()
        if not flat.dot(flat) < _SSQ_TOL:
            defect = np.abs(gap).max()
            if not defect <= _ORTHO_TOL:
                raise ValueError(f"basis columns are not orthonormal (defect {defect:.2e})")
        _set_basis(self, b)

    @property
    def n(self) -> int:
        return self.basis.shape[-2]

    @property
    def k(self) -> int:
        return self.basis.shape[-1]


# The slot's own setter: the frozen class refuses every other assignment.
_set_basis = Subspace.basis.__set__


def beta_k(g: np.ndarray, k: int) -> Subspace:
    """Images of span(e_1, ..., e_k) under the orthogonal matrices g, one
    (n, n) frame or a (..., n, n) stack.

    The basis is a copy of the first k columns of each frame.  k must be an
    integer (not a boolean) with 1 <= k <= n-1.
    """
    g = np.asarray(g)
    shape = g.shape
    if len(shape) < 2 or shape[-2] != shape[-1]:
        raise ValueError(f"need square orthogonal matrices, got shape {shape}")
    n = shape[-1]
    # a plain int skips the Integral check, which costs about a tenth of a
    # one-frame call
    if type(k) is not int and (isinstance(k, bool) or not isinstance(k, Integral)):
        raise ValueError(f"k must be an integer, got {k!r}")
    if not 1 <= k <= n - 1:
        raise ValueError(f"need 1 <= k <= n-1, got n={n}, k={k}")
    return Subspace(g[..., :k].copy())
