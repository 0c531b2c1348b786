import numpy as np
import pytest

from splab.angles import orth_complement, principal_angles, sin_theta_norm
from splab.errors import NotOrthonormal, ShapeMismatch
from splab.linalg import eig, qr_decompose
from splab.partition import TopKMagnitude, partition
from splab.rng import SplitMix64


def unit_cols(n, cols):
    m = np.zeros((n, len(cols)), dtype=np.complex128)
    for j, i in enumerate(cols):
        m[i, j] = 1.0
    return m


def random_orthonormal(seed, n, r):
    return qr_decompose(SplitMix64(seed).complex_normals(n, r)).q


def rotated_line(theta):
    """1-D subspace of R^2 rotated by theta from the first axis."""
    return np.array([[np.cos(theta)], [np.sin(theta)]], dtype=np.complex128)


def test_identical_subspaces():
    q = random_orthonormal(1, 6, 3)
    d = principal_angles(q, q)
    assert np.allclose(d.cosines, 1.0, atol=1e-12)
    assert d.sin_norm <= 1e-12
    assert sin_theta_norm(q, q) <= 1e-12
    assert principal_angles(q, q).tan_norm <= 1e-12


def test_partially_orthogonal_pair():
    q1 = unit_cols(3, [0, 1])
    q2 = unit_cols(3, [0, 2])
    d = principal_angles(q1, q2)
    assert np.allclose(sorted(d.cosines, reverse=True), [1.0, 0.0], atol=1e-14)
    assert d.sin_norm == pytest.approx(1.0, abs=1e-14)
    assert principal_angles(q1, q2).tan_norm == np.inf


def test_rotation_oracle():
    for theta in (1e-8, 1e-5, 0.1, 0.7, 1.3):
        e1 = rotated_line(0.0)
        qt = rotated_line(theta)
        assert sin_theta_norm(e1, qt) == pytest.approx(np.sin(theta), rel=1e-9)
        assert principal_angles(e1, qt).tan_norm == pytest.approx(np.tan(theta), rel=1e-9)


def test_orth_complement_cases():
    q = unit_cols(2, [0])
    comp = orth_complement(q)
    assert np.allclose(np.abs(comp.reshape(-1)), [0.0, 1.0], atol=1e-14)
    q = np.eye(5, dtype=np.complex128)[:, :2]
    comp = orth_complement(q)
    stacked = np.hstack([q, comp])
    assert np.linalg.norm(stacked.conj().T @ stacked - np.eye(5), 2) <= 1e-12
    q = random_orthonormal(2, 7, 3)
    comp = orth_complement(q)
    stacked = np.hstack([q, comp])
    assert np.linalg.norm(stacked.conj().T @ stacked - np.eye(7), 2) <= 1e-12


def test_orth_complement_rejects_bad_input():
    with pytest.raises(NotOrthonormal):
        orth_complement(np.ones((3, 2), dtype=np.complex128))
    with pytest.raises(ShapeMismatch):
        orth_complement(np.eye(3, dtype=np.complex128))


def test_orthonormality_check_falls_back_to_the_exact_defect():
    # column scaling by 1 + d gives gram - I = diag(2d + d^2): its 2-norm is
    # sqrt(r) times below its Frobenius norm, which exceeds ORTH_TOL * r = 4e-12
    q = random_orthonormal(4, 6, 4)
    inside = q * (1.0 + 1.5e-12)
    assert principal_angles(inside, q).cosines[-1] == pytest.approx(1.0)
    with pytest.raises(NotOrthonormal, match=r"^Q1: orthonormality defect 5\.00\de-12$"):
        sin_theta_norm(q * (1.0 + 2.5e-12), q)


def test_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        principal_angles(random_orthonormal(3, 5, 2), random_orthonormal(4, 5, 3))


def test_symmetry_on_seeded_pairs():
    for k in range(200):
        g = SplitMix64(500 + k)
        n = g.integer(2, 8)
        r = g.integer(1, n - 1)
        q1 = qr_decompose(g.complex_normals(n, r)).q
        q2 = qr_decompose(g.complex_normals(n, r)).q
        assert abs(sin_theta_norm(q1, q2) - sin_theta_norm(q2, q1)) <= 1e-12


def test_range_and_tan_dominance():
    for k in range(50):
        g = SplitMix64(900 + k)
        n = g.integer(2, 8)
        r = g.integer(1, n - 1)
        q1 = qr_decompose(g.complex_normals(n, r)).q
        q2 = qr_decompose(g.complex_normals(n, r)).q
        d = principal_angles(q1, q2)
        assert 0.0 <= d.sin_norm <= 1.0
        assert d.tan_norm >= d.sin_norm
        assert np.all((0.0 <= d.cosines) & (d.cosines <= 1.0))
        # sines consistent with cosines; the sqrt form loses half the digits
        # near cos = 1, so its own noise floor is ~sqrt(eps) ~ 1.5e-8
        assert np.allclose(d.sines, np.sqrt(1.0 - d.cosines ** 2), atol=1e-7)


def test_basis_invariance_under_unitary_mix():
    g = SplitMix64(77)
    q1 = qr_decompose(g.complex_normals(6, 3)).q
    q2 = qr_decompose(g.complex_normals(6, 3)).q
    w = qr_decompose(g.complex_normals(3, 3)).q
    base = sin_theta_norm(q1, q2)
    mixed = sin_theta_norm(q1, q2 @ w)
    assert abs(base - mixed) <= 1e-12
    d1 = principal_angles(q1, q2)
    d2 = principal_angles(q1, q2 @ w)
    assert np.allclose(d1.cosines, d2.cosines, atol=1e-12)


def test_cross_gram_equals_sin_theta_on_seeded_decompositions():
    # [Q_X1, Q_V2] is unitary because the dual basis satisfies V* X = I, so
    # the cross-Gram norm must reproduce the sin-theta distance.
    hits = 0
    k = 0
    while hits < 100:
        k += 1
        assert k < 2000, "case filter rejected too many seeds"
        g = SplitMix64(4200 + k)
        n = g.integer(3, 8)
        a = g.complex_normals(n, n)
        ed = eig(a)
        if ed.kappa_x > 1e4:
            continue
        r = g.integer(1, n - 1)
        part = partition(ed, TopKMagnitude(r))
        da = g.complex_normals(n, n)
        ed_t = eig(a + 1e-4 * da / np.linalg.norm(da, 2))
        part_t = partition(ed_t, TopKMagnitude(r))
        stacked = np.hstack([part.qr_x1.q, part.qr_v2.q])
        if np.linalg.norm(stacked.conj().T @ stacked - np.eye(n), 2) > 1e-8:
            continue
        cross = np.linalg.norm(part.qr_v2.q.conj().T @ part_t.qr_x1.q, 2)
        direct = sin_theta_norm(part.qr_x1.q, part_t.qr_x1.q)
        assert abs(cross - direct) <= 1e-8
        hits += 1
