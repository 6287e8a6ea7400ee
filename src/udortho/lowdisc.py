"""Deterministic low-discrepancy sequences in the half-open unit cube.

Every sequence here is random-access: coordinate values are pure functions
of (spec, index), so points can be generated out of order, in parallel, or
re-derived at any time from the spec alone.  `points` computes them a
range of indices at a time; `point_at`, a range of one, is kept as a
delegate because the benchmark's tracer binds that name.

There are two kinds (`KINDS`): Halton and scrambled Halton.  The
one-dimensional Halton sequence in base b is van der Corput's.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

import numpy as np

KINDS = ("halton", "scrambled-halton")

# Digit weights below 2^-63 are dropped: they are unrepresentable next to
# the leading digits in double precision.
_MIN_WEIGHT = 2.0**-63
_MAX_INDEX = 2**63 - 1

_MASK64 = (1 << 64) - 1
_LCG_MULT = 6364136223846793005
_LCG_INC = 1442695040888963407


def first_primes(count: int) -> list[int]:
    """First `count` primes, smallest first."""
    primes: list[int] = []
    x = 2
    while len(primes) < count:
        if all(x % p for p in primes):
            primes.append(x)
        x += 1
    return primes


@lru_cache(maxsize=None)
def digit_permutation(base: int, seed: int) -> tuple[int, ...]:
    """Deterministic digit permutation of {0..base-1} fixing 0.

    A recorded 64-bit linear-congruential stream drives a Fisher-Yates
    shuffle of the nonzero digits, so the permutation is reproducible from
    (base, seed) alone on any platform.
    """
    if base < 2:
        raise ValueError(f"base must be >= 2, got {base}")
    state = (seed * 0x9E3779B97F4A7C15 + base * 0xBF58476D1CE4E5B9 + 1) & _MASK64
    perm = list(range(base))
    for i in range(base - 1, 1, -1):
        state = (_LCG_MULT * state + _LCG_INC) & _MASK64
        j = 1 + (state >> 33) % i
        perm[i], perm[j] = perm[j], perm[i]
    return tuple(perm)


@dataclass(frozen=True)
class SequenceSpec:
    """Recipe for a d-dimensional low-discrepancy sequence.

    `bases` defaults to the first `dims` primes and must be pairwise
    coprime.  `skip` discards that many leading indices.  Scrambling uses
    one digit permutation per base, derived from `permutation_seed` by
    `digit_permutation`; all permutations fix digit 0.
    """

    kind: str = "halton"
    dims: int = 1
    bases: tuple[int, ...] = ()
    skip: int = 0
    permutation_seed: int = 0

    def __post_init__(self) -> None:
        if self.kind not in KINDS:
            raise ValueError(f"unknown sequence kind {self.kind!r}")
        if self.dims < 1:
            raise ValueError(f"dims must be >= 1, got {self.dims}")
        if self.skip < 0:
            raise ValueError(f"skip must be >= 0, got {self.skip}")
        if self.permutation_seed < 0:
            raise ValueError("permutation_seed must be >= 0")
        bases = self.bases or tuple(first_primes(self.dims))
        object.__setattr__(self, "bases", tuple(int(b) for b in bases))
        if len(self.bases) != self.dims:
            raise ValueError(f"need {self.dims} bases, got {len(self.bases)}")
        for b in self.bases:
            if b < 2:
                raise ValueError(f"bases must be >= 2, got {b}")
        for i, a in enumerate(self.bases):
            for b in self.bases[i + 1 :]:
                if gcd(a, b) != 1:
                    raise ValueError(f"bases {a} and {b} are not coprime")

    def permutations(self) -> tuple[tuple[int, ...], ...]:
        """Per-base digit permutations (identity unless scrambling)."""
        if self.kind == "scrambled-halton":
            return tuple(digit_permutation(b, self.permutation_seed) for b in self.bases)
        return tuple(tuple(range(b)) for b in self.bases)


def points(spec: SequenceSpec, count: int, start: int = 1) -> np.ndarray:
    """Points `start` .. `start+count-1` (1-based) as a (count, dims) array.

    Coordinate j of point i is the radical inverse of i + skip in base b_j:
    the base-b digits a_l of the index, passed through the base's digit
    permutation, are mirrored about the radix point, sum perm(a_l) b^(-l-1),
    which lies in [0, 1).  The indices are int64, so the last one,
    start + count - 1 + skip, must not exceed 2^63 - 1.
    """
    if start < 1:
        raise ValueError(f"start must be >= 1, got {start}")
    if count < 0:
        raise ValueError(f"count must be >= 0, got {count}")
    if start + count - 1 + spec.skip > _MAX_INDEX:
        raise ValueError(
            f"index {start + count - 1} + skip {spec.skip} exceeds 2^63 - 1"
        )
    idx = np.arange(start, start + count, dtype=np.int64) + spec.skip
    out = np.zeros((count, spec.dims))
    perms = spec.permutations()
    for j, (b, perm) in enumerate(zip(spec.bases, perms)):
        lookup = np.asarray(perm, dtype=np.int64)
        i = idx.copy()
        weight = 1.0 / b
        x = np.zeros(count)
        while i.any() and weight >= _MIN_WEIGHT:
            x += lookup[i % b] * weight
            i //= b
            weight /= b
        out[:, j] = x
    return out


def point_at(spec: SequenceSpec, index: int) -> np.ndarray:
    """The `index`-th point (1-based) of the sequence, as a length-d array."""
    return points(spec, 1, index)[0]
