"""Linear subspaces of R^n: the pushforward of O(n) frames to G(n, k).

A sequence in O(n) maps to a sequence of k-dimensional subspaces by taking
the image of the fixed reference subspace span(e_1, ..., e_k), i.e. the
first k columns of each matrix.  Equidistribution survives the pushforward,
so these subspace sequences integrate invariant functionals correctly.

`beta_k` maps one (n, n) frame or a (..., n, n) stack to a `Subspace` of
(n, k) bases.  It and `Subspace(basis)` check their arguments once, then end
in `_checked`, which refuses a basis whose columns are not orthonormal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np

from .lowdisc import check_integer

_ORTHO_TOL = 1e-10
_FLOAT = np.dtype(float)
_identity = cache(lambda k: tuple(np.eye(k).ravel().tolist()))  # flat I for math.dist


@dataclass(frozen=True, eq=False, init=False, slots=True)
class Subspace:
    """k-dimensional subspaces of R^n held as orthonormal n x k bases: one
    (n, k) basis, or a (..., n, k) stack of them.

    Each keeps its own float copy of `basis`.  `.basis` stays writable, as a
    read-only flag adds about a tenth to a `beta_k` push; writes go unchecked.

    Bases are coordinates, not identity: two values with equal column span
    are the same subspace, so compare spans (for example by their
    projectors B B^T), not bases or values.
    """

    basis: np.ndarray

    def __init__(self, basis: np.ndarray) -> None:
        b = np.array(basis)
        if b.ndim < 2:
            raise ValueError(f"basis must be an n x k matrix or a stack of them, got {b.shape}")
        n, k = b.shape[-2:]
        if not 1 <= k <= n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got n={n}, k={k}")
        _checked(b, self)

    @property
    def n(self) -> int:
        return self.basis.shape[-2]

    @property
    def k(self) -> int:
        return self.basis.shape[-1]


_set_basis = Subspace.basis.__set__  # the slot's setter; the frozen class refuses all others


def _checked(b: np.ndarray, sub: Subspace) -> Subspace:
    # b, a fresh (..., n, k) copy with 1 <= k <= n-1, becomes sub's basis.
    if b.dtype is not _FLOAT:
        if b.dtype.kind == "c":  # refused, not cut to its real part
            raise ValueError(f"need a real array, got {b.dtype}")
        b = b.astype(float)
    # A distance of the Gram products G from I below tol bounds every entry
    # of G - I; only a larger one needs the entrywise defect.
    k = b.shape[-1]
    if b.ndim == 2:  # one frame: ndarray.dot and math.dist skip numpy set-up
        dist = math.dist(b.T.dot(b).ravel().tolist(), _identity(k))
    else:
        gap = b.swapaxes(-1, -2) @ b
        gap -= np.eye(k)
        dist = np.linalg.norm(gap)
    if not dist < _ORTHO_TOL:
        defect = np.abs(b.swapaxes(-1, -2) @ b - np.eye(k)).max()
        if not defect <= _ORTHO_TOL:
            raise ValueError(f"basis columns are not orthonormal (defect {defect:.2e})")
    _set_basis(sub, b)
    return sub


def beta_k(g: np.ndarray, k: int) -> Subspace:
    """Images of span(e_1, ..., e_k) under the orthogonal matrices g, one
    (n, n) frame or a (..., n, n) stack.

    The basis is a float copy of the first k columns of each frame.  k must
    be an integer (not a boolean) with 1 <= k <= n-1.
    """
    g = np.asarray(g)
    shape = g.shape
    if len(shape) < 2 or shape[-2] != shape[-1]:
        raise ValueError(f"need square orthogonal matrices, got shape {shape}")
    k = check_integer("k", k, 1)
    if k > shape[-1] - 1:
        raise ValueError(f"need 1 <= k <= n-1, got n={shape[-1]}, k={k}")
    return _checked(g[..., :k].copy(), object.__new__(Subspace))
