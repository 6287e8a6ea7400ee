"""Low-discrepancy points on spheres via the normalized Box-Muller map.

A point of the unit cube is read as interleaved pairs (p_1, q_1, ..., p_k, q_k);
each pair feeds the Box-Muller transform, and normalizing the resulting
Gaussian-like vector puts it on the sphere.  Equidistribution in the cube
carries over to the sphere.  `sphere_points` maps a range of indices at a
time; `sphere_sequence`, a range of one, is kept as a delegate because the
benchmark's tracer binds that name.
"""

from __future__ import annotations

import numpy as np

from .lowdisc import SequenceSpec, check_integer, points

# Keeps -log(p) finite; 1 - 2^-53 is the largest double below 1.
_CLAMP = 2.0**-53


def input_dims(n: int) -> int:
    """Cube dimension consumed per point of S^(n-1): n rounded up to even."""
    n = check_integer("sphere ambient dimension", n, 2)
    return n if n % 2 == 0 else n + 1


def _box_muller(u: np.ndarray, n: int) -> np.ndarray:
    """Map the rows of u, cube points of dimension input_dims(n), to S^(n-1).

    xi_i = sqrt(-log p_i) cos(2 pi q_i), eta_i = sqrt(-log p_i) sin(2 pi q_i);
    for odd n the first cosine component xi_1 is dropped; the vector is then
    normalized to unit length.
    """
    p = np.clip(u[:, 0::2], _CLAMP, 1.0 - _CLAMP)
    angle = 2.0 * np.pi * u[:, 1::2]
    radius = np.sqrt(-np.log(p))
    vec = np.empty_like(u)
    vec[:, 0::2] = radius * np.cos(angle)
    vec[:, 1::2] = radius * np.sin(angle)
    if n % 2 != 0:
        vec = vec[:, 1:]
    r = np.linalg.norm(vec, axis=-1, keepdims=True)
    if np.any(r == 0.0):
        raise ArithmeticError("degenerate Box-Muller vector of zero length")
    return vec / r


def sphere_points(n: int, spec: SequenceSpec, count: int, start: int = 1) -> np.ndarray:
    """Sphere points `start` .. `start+count-1` (1-based) as a (count, n) array."""
    need = input_dims(n)
    if spec.dims != need:
        raise ValueError(f"S^{n - 1} needs a {need}-dimensional spec, got {spec.dims}")
    return _box_muller(points(spec, count, start), n)


def sphere_sequence(n: int, spec: SequenceSpec, index: int) -> np.ndarray:
    """The `index`-th point of the sequence on S^(n-1), a unit n-vector."""
    return sphere_points(n, spec, 1, index)[0]
