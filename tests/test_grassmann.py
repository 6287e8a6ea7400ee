import numpy as np
import pytest

from udortho.geometry import builtin, project
from udortho.grassmann import Subspace, beta_k, complement, principal_angles
from udortho.orthogonal import OrthoSequence, default_ortho_spec, random_ortho_batch


def projector_distance(a: Subspace, b: Subspace) -> float:
    """max-entry distance between the projectors of two subspaces."""
    return float(np.abs(a.projector() - b.projector()).max())


def frames_of(source: str, n: int, count: int) -> np.ndarray:
    if source == "random":
        return random_ortho_batch(n, count, np.random.default_rng(n))
    return OrthoSequence(default_ortho_spec(n, permutation_seed=n)).take(count)


def test_beta_k_identity():
    sub = beta_k(np.eye(3), 2)
    assert (sub.n, sub.k) == (3, 2)
    assert np.array_equal(sub.basis, np.eye(3)[:, :2])


def test_beta_k_span_invariance():
    # opposite basis vector, same line
    a = beta_k(np.diag([-1.0, 1.0, 1.0]), 1)
    b = beta_k(np.eye(3), 1)
    assert projector_distance(a, b) < 1e-15


def test_beta_k_range_check():
    with pytest.raises(ValueError):
        beta_k(np.eye(3), 3)
    with pytest.raises(ValueError):
        beta_k(np.eye(3), 0)


def test_projector_identity_against_frames():
    seq = OrthoSequence(default_ortho_spec(4))
    for m in range(1, 1001):
        g = seq.element(m)
        p = beta_k(g, 2).projector()
        expected = g @ np.diag([1.0, 1.0, 0.0, 0.0]) @ g.T
        assert np.abs(p - expected).max() < 1e-12


def test_complement_examples():
    sub = beta_k(np.eye(3), 2)
    comp = complement(sub)
    assert comp.k == 1
    assert np.abs(comp.projector() - np.diag([0.0, 0.0, 1.0])).max() < 1e-15


def test_complement_projector_decomposition():
    rng = np.random.default_rng(3)
    frames = random_ortho_batch(4, 1000, rng)
    for g in frames[:: 50]:
        sub = beta_k(g, 2)
        comp = complement(sub)
        assert np.abs(sub.projector() + comp.projector() - np.eye(4)).max() < 1e-10
        # involution up to projector equality
        assert projector_distance(complement(comp), sub) < 1e-10


def test_complement_without_carried_frame():
    basis = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0], [0.0, 0.0]])
    sub = Subspace(basis=basis)
    comp = complement(sub)
    assert comp.k == 2
    assert np.abs(sub.projector() + comp.projector() - np.eye(4)).max() < 1e-12


def test_subspace_validation():
    with pytest.raises(ValueError):
        Subspace(basis=np.array([[1.0, 1.0], [0.0, 1.0], [0.0, 0.0]]))
    with pytest.raises(ValueError):
        Subspace(basis=np.eye(3))  # k must stay below n
    nan = np.eye(3)[:, :2]
    nan[0, 0] = np.nan
    with pytest.raises(ValueError, match="not orthonormal"):
        Subspace(nan)
    with pytest.raises(ValueError, match="n x k"):
        Subspace(np.ones(3))
    with pytest.raises(ValueError, match="1 <= k"):
        Subspace(np.zeros((5, 3, 3)))
    with pytest.raises(ValueError, match="square"):
        beta_k(np.zeros((5, 4, 3)), 2)
    with pytest.raises(ValueError, match="square"):
        beta_k(np.ones(4), 2)


def test_principal_angles():
    a = beta_k(np.eye(3), 1)
    rot = np.array([[0.0, -1.0, 0.0], [1.0, 0.0, 0.0], [0.0, 0.0, 1.0]])
    b = beta_k(rot, 1)
    np.testing.assert_allclose(principal_angles(a, b), [np.pi / 2.0], atol=1e-12)
    np.testing.assert_allclose(principal_angles(a, a), [0.0], atol=1e-12)


def test_sequence_never_sticks():
    seq = OrthoSequence(default_ortho_spec(3))
    subs = [beta_k(seq.element(m), 1) for m in range(1, 501)]
    same = [projector_distance(a, b) < 1e-8 for a, b in zip(subs, subs[1:])]
    run = longest = 0
    for flag in same:
        run = run + 1 if flag else 0
        longest = max(longest, run)
    assert longest < 99  # no window of 100 identical subspaces


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 2)])
def test_mean_projector_smoke(n, k):
    # full-scale (N = 1e5) checks live in the acceptance suite
    seq = OrthoSequence(default_ortho_spec(n))
    frames = seq.take(20000)
    b = frames[:, :, :k]
    mean_p = np.einsum("mik,mjk->ij", b, b) / frames.shape[0]
    assert np.abs(mean_p - (k / n) * np.eye(n)).max() < 2e-2


@pytest.mark.parametrize("source", ["random", "qmc"])
@pytest.mark.parametrize("n", [3, 4, 5])
def test_beta_k_stack_matches_frames(source, n):
    # qmc at n = 4 covers a whole take of the size the ortho-stream
    # benchmark pushes to G(4, 2)
    frames = frames_of(source, n, 20_000 if (source, n) == ("qmc", 4) else 300)
    for k in range(1, n):
        stacked = beta_k(frames, k)
        assert (stacked.n, stacked.k) == (n, k)
        per_frame = np.stack([beta_k(g, k).basis for g in frames[:300]])
        assert np.array_equal(stacked.basis[:300], per_frame)
        assert np.array_equal(stacked.basis, frames[:, :, :k])
    # leading axes beyond one are kept
    assert beta_k(frames[:300].reshape(3, 100, n, n), 1).basis.shape == (3, 100, n, 1)


def test_beta_k_stack_rejects_one_bad_frame():
    frames = frames_of("qmc", 4, 50)
    frames[17, 0, 0] += 1e-6
    with pytest.raises(ValueError, match="not orthonormal"):
        beta_k(frames, 2)
    with pytest.raises(ValueError, match="not orthonormal"):
        beta_k(frames[17], 2)
    beta_k(np.delete(frames, 17, axis=0), 2)


def test_beta_k_copies_its_columns():
    g = np.eye(4)
    sub = beta_k(g, 2)
    g[0, 0] = -1.0
    assert sub.basis[0, 0] == 1.0


def test_orthonormality_tolerance_is_entrywise():
    # Gram matrix I + a (all four entries): the sum of squares 4 a^2 is above
    # tol^2, so the fast accept fails and the entrywise defect must accept a
    # just below the tolerance
    q = np.linalg.qr(np.random.default_rng(0).standard_normal((4, 4)))[0][:, :2]
    for a, ok in ((0.9e-10, True), (1.1e-10, False)):
        r = np.linalg.cholesky(np.eye(2) + a)
        basis = q @ r.T
        stack = np.stack([q, basis, q])
        if ok:
            Subspace(basis)
            Subspace(stack)
        else:
            with pytest.raises(ValueError, match="not orthonormal"):
                Subspace(basis)
            with pytest.raises(ValueError, match="not orthonormal"):
                Subspace(stack)


@pytest.mark.parametrize("n,k", [(3, 1), (3, 2), (4, 2), (5, 3)])
def test_stacked_complement_and_angles_match_per_frame(n, k):
    frames = frames_of("random", n, 40)
    subs = beta_k(frames, k)
    comp = complement(subs)
    assert (comp.n, comp.k) == (n, n - k)
    for i, g in enumerate(frames):
        one = complement(beta_k(g, k))
        assert np.abs(comp.projector()[i] - one.projector()).max() < 1e-12
    others = beta_k(frames_of("qmc", n, 40), k)
    angles = principal_angles(subs, others)
    assert angles.shape == (40, k)
    for i, g in enumerate(frames):
        one = principal_angles(beta_k(g, k), Subspace(others.basis[i]))
        assert np.abs(angles[i] - one).max() < 1e-12
    # a single subspace broadcasts against a stack
    first = beta_k(frames[0], k)
    one = principal_angles(first, Subspace(others.basis[3]))
    assert np.abs(principal_angles(first, others)[3] - one).max() < 1e-12


def test_subspace_is_immutable():
    sub = beta_k(np.eye(3), 2)
    with pytest.raises(AttributeError):
        sub.basis = np.eye(3)[:, :1]
    with pytest.raises(AttributeError):
        del sub.basis
    assert np.array_equal(sub.basis, np.eye(3)[:, :2])


def test_project_rejects_a_stacked_subspace():
    stacked = beta_k(frames_of("random", 4, 3), 2)
    with pytest.raises(ValueError, match="basis must be"):
        project(builtin("4-cube"), stacked)
