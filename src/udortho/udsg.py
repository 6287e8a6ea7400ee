"""Veech's uniformly-distributed-sequence generator from Champernowne digits.

Champernowne's constant 0.123456789101112... is normal in base 10.  Record
the positions q_1 < q_2 < ... where the digit 5 occurs (the one interval the
construction needs, see `_DIGIT`), take the gaps
r_1 = q_1 - 1, r_m = q_m - q_{m-1}, and the cumulative products
w_m = z_{r_1} z_{r_2} ... z_{r_m} equidistribute in any compact group,
provided the source sequence (z_j) is not trapped in a proper closed
subgroup.

`gap_blocks` is the one reader of the digits: it gives the gaps as int64
arrays, which the block-vectorized O(n) sequence takes directly and
`r_sequence`, `occurrence_positions` and the lazy `generated` take from it.
`champernowne_digit` is an independent random-access formula.
"""

from __future__ import annotations

from typing import Callable, Iterator, TypeVar

import numpy as np

from .lowdisc import check_integer

T = TypeVar("T")

# Champernowne integers turned into digits per vectorized step of `gap_blocks`,
# and gaps per block that `generated` takes.
_CHUNK = 4096

# The occurrence interval is [5/10, 6/10): a digit-aligned interval has
# length 1/10, the least the generator theorem allows for the base-10
# Champernowne source, and membership is one digit comparison.
_DIGIT = 5


def champernowne_digit(i: int) -> int:
    """The i-th decimal digit (1-based) of 0.123456789101112...

    Works by arithmetic over the digit blocks contributed by the k-digit
    integers (9 * k * 10^(k-1) digits each), so any position is reachable
    without materializing the expansion.
    """
    rem = check_integer("position", i, 1)
    k = 1
    while rem > 9 * k * 10 ** (k - 1):
        rem -= 9 * k * 10 ** (k - 1)
        k += 1
    number = 10 ** (k - 1) + (rem - 1) // k
    offset = (rem - 1) % k
    return (number // 10 ** (k - 1 - offset)) % 10


def gap_blocks(size: int) -> Iterator[np.ndarray]:
    """Gaps r_1 = q_1 - 1, r_m = q_m - q_{m-1}, as int64 arrays of `size` each.

    Digits are read _CHUNK integers at a time: the integers of one digit
    length form a (count, k) array of digits, split off last digit first by
    one divmod by 10 per column, and the positions of the digit 5 in it are
    the occurrences.
    """
    size = check_integer("size", size, 1)
    parts, have = [], 0  # gaps not yet yielded
    prev = 1  # position of the last occurrence
    read = 0  # digits read so far
    number = 1  # next integer to read
    while True:
        k = len(str(number))
        stop = min(number + _CHUNK, 10**k)
        rest = np.arange(number, stop, dtype=np.int64)
        digits = np.empty((rest.size, k), dtype=np.int64)
        for i in range(k - 1, -1, -1):
            rest, digits[:, i] = np.divmod(rest, 10)
        q = read + 1 + np.flatnonzero(digits.ravel() == _DIGIT)
        read += digits.size
        number = stop
        if q.size:
            parts.append(np.diff(q, prepend=prev))
            prev = int(q[-1])
            have += q.size
        if have >= size:
            gaps = np.concatenate(parts)
            end = have - have % size
            yield from gaps[:end].reshape(-1, size)
            parts, have = [gaps[end:]], have - end


def r_sequence(count: int) -> list[int]:
    """First `count` gaps of the occurrence sequence."""
    return next(gap_blocks(check_integer("count", count, 1))).tolist()


def occurrence_positions(count: int) -> list[int]:
    """First `count` occurrence positions q_m = 1 + r_1 + ... + r_m."""
    return (1 + np.cumsum(r_sequence(count))).tolist()


def generated(z: Callable[[int], T], *, mul: Callable[[T, T], T], identity: T) -> Iterator[T]:
    """Stream w_1, w_2, ... with w_m = w_{m-1} * z(r_m), starting from identity.

    `z` is indexed 1-based; `mul` must be associative.
    """
    w = identity
    for block in gap_blocks(_CHUNK):
        for r in block.tolist():
            w = mul(w, z(r))
            yield w

