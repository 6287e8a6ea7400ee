"""Crofton-type estimation of intrinsic volumes over subspace sequences.

For a polytope K and subspaces L drawn from G(n, k), the running mean of
f(L) = vol(K | L_perp) converges to the invariant integral; scaling by the
Crofton constant c_{k,n} turns that integral into the intrinsic volume
V_{n-k}(K).  `reference_value` gives that limit exactly for a builtin body,
from `geometry.intrinsic_volume`.

Three sampling modes are compared: Haar-random subspaces, the quasi-random
construction, and the quasi-random construction without the
cumulative-product step (`qmc-noveech`).  The last is uniformly distributed
too, but at N samples from O(n) it rests on only about N^(1/2^(n-i+1))
distinct sphere points at recursion level i, so its estimates converge more
slowly.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .geometry import (
    Polytope,
    builtin,
    crofton_constant,
    intrinsic_volume,
    projection_measure,
)
from .lowdisc import check_integer
from .orthogonal import BLOCK, OrthoSequence, OrthoSequenceSpec, random_ortho_batch

MODES = ("random", "qmc", "qmc-noveech")


@dataclass(frozen=True)
class ExperimentSpec:
    """Everything needed to reproduce one estimation run bit for bit.

    `seed` is the run's one seed: the Haar draws of random mode, or the
    digit scrambling (`permutation_seed`) of the quasi modes, whose level
    layout is `OrthoSequenceSpec`'s.  `trace_points` are the sample counts
    at which the running mean is recorded, (N,) by default.  n, k, N, the
    seed and the trace points must be integers (not booleans), seed >= 0,
    and are stored as ints.
    """

    polytope: Polytope
    n: int
    k: int
    N: int
    mode: str = "qmc"
    seed: int = 0
    trace_points: tuple[int, ...] = ()

    def __post_init__(self) -> None:
        for name, low in (("n", 1), ("k", 1), ("N", 1), ("seed", 0)):
            object.__setattr__(self, name, check_integer(name, getattr(self, name), low))
        trace = tuple(check_integer("trace point", t, 1) for t in self.trace_points)
        object.__setattr__(self, "trace_points", trace or (self.N,))
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}, got {self.mode!r}")
        if not 1 <= self.k <= self.n - 1:
            raise ValueError(f"need 1 <= k <= n-1, got n={self.n}, k={self.k}")
        if not 1 <= self.n - self.k <= 3:
            raise ValueError(
                f"projection dimension n-k must be 1..3, got {self.n - self.k}"
            )
        if self.polytope.n != self.n:
            raise ValueError(
                f"polytope lives in R^{self.polytope.n}, experiment in R^{self.n}"
            )
        if list(self.trace_points) != sorted(set(self.trace_points)):
            raise ValueError("trace points must be strictly increasing")
        if self.trace_points[-1] > self.N:
            raise ValueError("trace points must lie in 1..N")

    def ortho_spec(self) -> OrthoSequenceSpec:
        return OrthoSequenceSpec(self.n, permutation_seed=self.seed, veech=self.mode == "qmc")


@dataclass
class ConvergenceTrace:
    """Running means of the projection volume at the requested counts."""

    spec: ExperimentSpec
    points: tuple[tuple[int, float], ...]
    final: float
    intrinsic: float
    repair_count: int = 0

    @cached_property
    def _values(self) -> dict[int, float]:
        return dict(self.points)

    def value_at(self, m: int) -> float:
        try:
            return self._values[m]
        except KeyError:
            raise KeyError(f"no trace point at m={m}") from None


def run(spec: ExperimentSpec) -> ConvergenceTrace:
    """Estimate the subspace average of the projection volume.

    Frames are drawn BLOCK at a time, from one generator seeded by `seed`
    in random mode and from the sequence in the quasi modes, and measured
    by the body's `projection_measure`, so frames and temporaries do not
    grow with N.  Random blocks are the rows of one `random_ortho_batch(n,
    N, rng)` call, since its draws split at any count.  The values are
    accumulated with compensated summation one by one in index order, so
    the trace is a pure function of the spec and does not depend on BLOCK.
    """
    n, N = spec.n, spec.N
    measure = projection_measure(spec.polytope.vertices, spec.k)
    rng = np.random.default_rng(spec.seed)
    seq = None if spec.mode == "random" else OrthoSequence(spec.ortho_spec())
    trace_set = set(spec.trace_points)
    points: list[tuple[int, float]] = []
    total = 0.0
    comp = 0.0
    m = 0
    for lo in range(0, N, BLOCK):
        count = min(BLOCK, N - lo)
        block = random_ortho_batch(n, count, rng) if seq is None else seq.frames(lo + 1, count)
        for f in measure(block).tolist():
            m += 1
            y = f - comp
            t = total + y
            comp = (t - total) - y
            total = t
            if m in trace_set:
                points.append((m, total / m))
    final = total / N
    c = crofton_constant(n, spec.k)
    return ConvergenceTrace(
        spec=spec,
        points=tuple(points),
        final=final,
        intrinsic=c * final,
        repair_count=seq.repair_count if seq is not None else 0,
    )


@dataclass
class ComparisonReport:
    """Per-mode running means on a common grid of counts, with absolute
    errors against a reference value."""

    polytope_label: str
    n: int
    k: int
    reference: float
    trace_points: tuple[int, ...]
    values: dict[str, dict[int, float]]
    errors: dict[str, dict[int, float]]


def compare(specs: list[ExperimentSpec], reference: float) -> ComparisonReport:
    """Run several modes on the same body and tabulate against a reference.

    Results are keyed by mode, so each mode may appear only once.
    """
    if not specs:
        raise ValueError("need at least one experiment spec")
    modes = [s.mode for s in specs]
    repeated = sorted({mode for mode in modes if modes.count(mode) > 1})
    if repeated:
        raise ValueError(f"each mode may appear once; repeated: {', '.join(repeated)}")
    first = specs[0]
    for s in specs[1:]:
        if (s.n, s.k) != (first.n, first.k):
            raise ValueError("all experiments must share (n, k)")
        if s.polytope.label != first.polytope.label or not np.array_equal(
            s.polytope.vertices, first.polytope.vertices
        ):
            raise ValueError("all experiments must share the polytope")
    common = set(specs[0].trace_points)
    for s in specs[1:]:
        common &= set(s.trace_points)
    if not common:
        raise ValueError("experiments share no trace points")
    grid = tuple(sorted(common))
    values: dict[str, dict[int, float]] = {}
    errors: dict[str, dict[int, float]] = {}
    for s in specs:
        trace = run(s)
        vals = {m: trace.value_at(m) for m in grid}
        values[s.mode] = vals
        errors[s.mode] = {m: abs(v - reference) for m, v in vals.items()}
    return ComparisonReport(
        polytope_label=first.polytope.label,
        n=first.n,
        k=first.k,
        reference=reference,
        trace_points=grid,
        values=values,
        errors=errors,
    )


def reference_value(label: str, n: int, k: int) -> float:
    """Exact subspace average of the projection volume of the builtin body
    `label` over G(n, k): its intrinsic volume V_{n-k} over the Crofton
    constant, the value the running means of `run` converge to."""
    return intrinsic_volume(builtin(label).vertices, n - k) / crofton_constant(n, k)
