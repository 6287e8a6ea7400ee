"""Quasi-random sequences in the orthogonal group and on Grassmannians.

Uniformly distributed matrix sequences are built by the subgroup recursion:
low-discrepancy sphere points choose coset representatives (reflections),
a square-block convolution interleaves them with the previous level, and
cumulative products along the gaps between the 5s of Champernowne's digits
(Veech's generator) finish the job.
Pushing the sequence to subspace form gives quasi-random points on G(n, k),
which drive Crofton-type estimates of intrinsic volumes of polytopes next
to a Haar-random baseline.

Each stage has one batched path: `points` (cube), `sphere_points` (sphere),
`OrthoSequence.frames` (O(n)) and `beta_k` (G(n, k), which maps one frame
or a stack to a `Subspace` holding a checked copy of their first k columns);
`run` reads frames a block at a time.
`point_at` and `sphere_sequence` are one-index delegates, kept because the
benchmark's tracer binds them.  The cube points are scrambled Halton read
from index 1, so (n, seed) alone chooses them.  The estimate modes are
declared once, as `estimator.MODES`; every `--mode` flag of the CLI takes
its choices from `MODES`.
"""

from .estimator import (
    ComparisonReport,
    ConvergenceTrace,
    ExperimentSpec,
    compare,
    reference_value,
    run,
)
from .geometry import (
    Polytope,
    ball_volume,
    builtin,
    crofton_constant,
    hull_measure,
    load_polytope,
    random_spherical_polytope,
)
from .grassmann import Subspace, beta_k
from .lowdisc import SequenceSpec, point_at, points
from .orthogonal import (
    OrthoSequence,
    OrthoSequenceSpec,
    convolution_index,
    coset_rep,
    random_ortho_batch,
    t_inverse,
)
from .sphere import sphere_points, sphere_sequence
from .udsg import (
    champernowne_digit,
    generated,
    occurrence_positions,
    r_sequence,
)

__version__ = "0.1.0"

__all__ = [
    "ComparisonReport",
    "ConvergenceTrace",
    "ExperimentSpec",
    "OrthoSequence",
    "OrthoSequenceSpec",
    "Polytope",
    "SequenceSpec",
    "Subspace",
    "ball_volume",
    "beta_k",
    "builtin",
    "champernowne_digit",
    "compare",
    "convolution_index",
    "coset_rep",
    "crofton_constant",
    "generated",
    "hull_measure",
    "load_polytope",
    "occurrence_positions",
    "point_at",
    "points",
    "r_sequence",
    "random_ortho_batch",
    "random_spherical_polytope",
    "reference_value",
    "run",
    "sphere_points",
    "sphere_sequence",
    "t_inverse",
]
