"""Deterministic low-discrepancy sequences in the half-open unit cube.

Every sequence here is random-access: coordinate values are pure functions
of (spec, index), so points can be generated out of order, in parallel, or
re-derived at any time from the spec alone.  `points` computes them a
range of indices at a time; `point_at`, a range of one, is kept as a
delegate because the benchmark's tracer binds that name.

The one sequence is digit-scrambled Halton, read from index 1 so that the
origin never appears.  A seed whose permutations are all the identity gives
plain Halton, whose one-dimensional case in base b is van der Corput's.

`check_integer` is the package's one rule for integer arguments (indices,
counts, dimensions, seeds and bases): every module that takes one calls it.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd
from numbers import Integral

import numpy as np

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


def check_integer(name: str, value, low: int) -> int:
    """`value` as a Python int, refused with ValueError unless it is an
    integer (a numpy integer passes; a boolean is not 0 or 1, and a fraction
    or a float is not truncated) and at least `low`."""
    if type(value) is not int:
        if not isinstance(value, Integral) or isinstance(value, bool):
            raise ValueError(f"{name} must be an integer, got {value!r}")
        value = int(value)
    if value < low:
        raise ValueError(f"{name} must be >= {low}, got {value!r}")
    return value


def check_range(start, count) -> None:
    """Refuse a range of 1-based indices unless `check_integer` takes
    start >= 1 and count >= 0."""
    check_integer("start", start, 1)
    check_integer("count", count, 0)


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
    """Recipe for a d-dimensional scrambled Halton sequence.

    `bases` defaults to the first `dims` primes and must be pairwise
    coprime.  Scrambling uses one digit permutation per base, derived from
    `permutation_seed` by `digit_permutation`; all permutations fix digit 0.
    dims, the seed and the bases must be integers (not booleans); numpy
    integers are stored as ints.
    """

    dims: int = 1
    bases: tuple[int, ...] = ()
    permutation_seed: int = 0

    def __post_init__(self) -> None:
        # stored as ints: numpy integers would overflow in the scrambling hash
        for name, low in (("dims", 1), ("permutation_seed", 0)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), low))
        bases = (tuple(check_integer("base", b, 2) for b in self.bases)
                 or tuple(first_primes(self.dims)))
        object.__setattr__(self, "bases", bases)
        if len(bases) != self.dims:
            raise ValueError(f"need {self.dims} bases, got {len(bases)}")
        for i, a in enumerate(self.bases):
            for b in self.bases[i + 1 :]:
                if gcd(a, b) != 1:
                    raise ValueError(f"bases {a} and {b} are not coprime")

    def permutations(self) -> tuple[tuple[int, ...], ...]:
        """Per-base digit permutations."""
        return tuple(digit_permutation(b, self.permutation_seed) for b in self.bases)


def points(spec: SequenceSpec, count: int, start: int = 1) -> np.ndarray:
    """Points `start` .. `start+count-1` (1-based) as a (count, dims) array.

    Coordinate j of point i is the radical inverse of i in base b_j: the
    base-b digits a_l of the index, passed through the base's digit
    permutation, are mirrored about the radix point, sum perm(a_l) b^(-l-1),
    which lies in [0, 1).  start and count must be integers (not booleans).
    The indices are int64, so the last one, start + count - 1, must not
    exceed 2^63 - 1.
    """
    check_range(start, count)
    last = int(start) + int(count) - 1  # numpy integers would wrap
    if last > _MAX_INDEX:
        raise ValueError(f"index {last} exceeds 2^63 - 1")
    idx = np.arange(start, start + count, dtype=np.int64)
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
