"""Veech's uniformly-distributed-sequence generator from Champernowne digits.

Champernowne's constant 0.123456789101112... is normal in base 10.  Record
the positions q_1 < q_2 < ... where a chosen digit occurs, take the gaps
r_1 = q_1 - 1, r_m = q_m - q_{m-1}, and the cumulative products
w_m = z_{r_1} z_{r_2} ... z_{r_m} equidistribute in any compact group,
provided the source sequence (z_j) is not trapped in a proper closed
subgroup.

`r_stream` and `generated` walk the digits one at a time and define the
sequence; `gap_blocks` gives the same gaps as int64 arrays for the
block-vectorized O(n) sequence.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import count, islice
from typing import Callable, Iterator, TypeVar

import numpy as np

T = TypeVar("T")

# Champernowne integers turned into digits per vectorized step of `gap_blocks`.
_CHUNK = 4096


@dataclass(frozen=True)
class GeneratorSpec:
    """Occurrence interval [t/10, (t+1)/10) encoded by its decimal digit t.

    Digit-aligned intervals have length exactly 1/10, the minimum the
    generator theorem requires for the base-10 Champernowne source, and
    make the membership test a single digit comparison.
    """

    target_digit: int = 5

    def __post_init__(self) -> None:
        if not 0 <= self.target_digit <= 9:
            raise ValueError(f"target_digit must be in 0..9, got {self.target_digit}")


def champernowne_digit(i: int) -> int:
    """The i-th decimal digit (1-based) of 0.123456789101112...

    Works by arithmetic over the digit blocks contributed by the k-digit
    integers (9 * k * 10^(k-1) digits each), so any position is reachable
    without materializing the expansion.
    """
    if i < 1:
        raise ValueError(f"position must be >= 1, got {i}")
    k = 1
    rem = i
    while rem > 9 * k * 10 ** (k - 1):
        rem -= 9 * k * 10 ** (k - 1)
        k += 1
    number = 10 ** (k - 1) + (rem - 1) // k
    offset = (rem - 1) % k
    return (number // 10 ** (k - 1 - offset)) % 10


def champernowne_digits() -> Iterator[int]:
    """Digits of Champernowne's constant in order, from position 1."""
    for n in count(1):
        for ch in str(n):
            yield int(ch)


def occurrence_stream(spec: GeneratorSpec = GeneratorSpec()) -> Iterator[int]:
    """Positions q (1-based, increasing) whose digit equals the target."""
    target = spec.target_digit
    for pos, digit in enumerate(champernowne_digits(), start=1):
        if digit == target:
            yield pos


def occurrence_positions(spec: GeneratorSpec, count: int) -> list[int]:
    """First `count` occurrence positions q_1 < q_2 < ..."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return list(islice(occurrence_stream(spec), count))


def r_stream(spec: GeneratorSpec = GeneratorSpec()) -> Iterator[int]:
    """Gap sequence r_1 = q_1 - 1, r_m = q_m - q_{m-1}.

    An occurrence at position 1 (possible only for target digit 1) is
    dropped: it would give r_1 = 0, which is not a valid 1-based index
    into the generated sequence.
    """
    prev = None
    for q in occurrence_stream(spec):
        if prev is None:
            if q == 1:
                continue
            yield q - 1
        else:
            yield q - prev
        prev = q


def r_sequence(spec: GeneratorSpec, count: int) -> list[int]:
    """First `count` gaps of the occurrence sequence."""
    if count < 1:
        raise ValueError(f"count must be >= 1, got {count}")
    return list(islice(r_stream(spec), count))


def gap_blocks(spec: GeneratorSpec, size: int) -> Iterator[np.ndarray]:
    """The gaps of `r_stream`, as consecutive int64 arrays of `size` gaps each.

    Digits are read _CHUNK integers at a time: the integers of one digit
    length form a (count, k) array of digits, and the positions of the
    target digit in it are the occurrences.  Gaps are counted from position
    1, which drops an occurrence there as `r_stream` does.
    """
    if size < 1:
        raise ValueError(f"size must be >= 1, got {size}")
    pending = np.empty(0, dtype=np.int64)
    prev = 1  # position of the last occurrence
    read = 0  # digits read so far
    number = 1  # next integer to read
    while True:
        parts = [pending]
        have = pending.size
        while have < size:
            k = len(str(number))
            stop = min(number + _CHUNK, 10**k)
            powers = 10 ** np.arange(k - 1, -1, -1, dtype=np.int64)
            digits = np.arange(number, stop, dtype=np.int64)[:, None] // powers % 10
            q = read + 1 + np.flatnonzero(digits.ravel() == spec.target_digit)
            q = q[q > 1]
            if q.size:
                parts.append(np.diff(q, prepend=prev))
                prev = int(q[-1])
                have += q.size
            read += digits.size
            number = stop
        pending = np.concatenate(parts)
        yield pending[:size].copy()
        pending = pending[size:]


def generated(
    z: Callable[[int], T],
    *,
    mul: Callable[[T, T], T],
    identity: T,
    spec: GeneratorSpec = GeneratorSpec(),
) -> Iterator[T]:
    """Stream w_1, w_2, ... with w_m = w_{m-1} * z(r_m), starting from identity.

    `z` is indexed 1-based; `mul` must be associative.
    """
    w = identity
    for r in r_stream(spec):
        w = mul(w, z(r))
        yield w

