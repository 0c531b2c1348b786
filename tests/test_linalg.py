import numpy as np
import pytest

from splab.errors import (
    InvalidMatrix,
    NotDiagonalizable,
    RankDeficient,
    ShapeMismatch,
    Singular,
    SizeCap,
)
from splab.linalg import (
    as_matrix,
    cond2,
    eig,
    kron,
    norms,
    qr_decompose,
)
from splab.rng import SplitMix64


def seeded_complex(seed, rows, cols):
    return SplitMix64(seed).complex_normals(rows, cols)


def test_as_matrix_rejects_bad_input():
    with pytest.raises(InvalidMatrix):
        as_matrix([[np.nan, 0.0], [0.0, 1.0]])
    with pytest.raises(InvalidMatrix):
        as_matrix([[np.inf, 0.0], [0.0, 1.0]])
    with pytest.raises(ShapeMismatch):
        as_matrix(np.ones(3))


# --- qr ---

def test_qr_identity():
    f = qr_decompose(np.eye(3))
    assert np.allclose(f.q, np.eye(3), atol=1e-14)
    assert np.allclose(f.r, np.eye(3), atol=1e-14)


def test_qr_upper_triangular_positive_diag_is_own_r():
    z = np.array([[2.0, 1.0, 0.5], [0.0, 1.5, -0.3], [0.0, 0.0, 0.25]],
                 dtype=np.complex128)
    f = qr_decompose(z)
    assert np.allclose(f.q, np.eye(3), atol=1e-13)
    assert np.allclose(f.r, z, atol=1e-13)


def test_qr_residual_and_conventions_on_seeded_cases():
    for k in range(200):
        g = SplitMix64(1000 + k)
        rows = g.integer(2, 12)
        cols = g.integer(1, rows)
        z = g.complex_normals(rows, cols)
        f = qr_decompose(z)
        scale = np.linalg.norm(z, 2)
        assert np.linalg.norm(f.q @ f.r - z, 2) <= 1e-12 * scale
        assert np.linalg.norm(f.q.conj().T @ f.q - np.eye(cols), 2) <= 1e-12 * cols
        assert f.kappa == cond2(z)
        d = np.diagonal(f.r)
        assert np.all(d.imag == 0.0)
        assert np.all(d.real >= 0.0)


def test_qr_rank_deficient():
    z = np.ones((4, 2), dtype=np.complex128)
    with pytest.raises(RankDeficient):
        qr_decompose(z)


# --- eig ---

def test_eig_diagonal_case():
    ed = eig(np.diag([2.0, 1.0]).astype(np.complex128))
    assert np.allclose(ed.lam, [2.0, 1.0])
    assert np.allclose(ed.x, np.eye(2), atol=1e-14)
    assert np.allclose(ed.v, np.eye(2), atol=1e-14)


def test_eig_near_jordan_block_eigenvalues():
    # closed form: the 2x2 block [[1, 1], [eps, 1]] has eigenvalues 1 +- sqrt(eps)
    eps = 1e-4
    ed = eig(np.array([[1.0, 1.0], [eps, 1.0]], dtype=np.complex128))
    assert ed.lam[0] == pytest.approx(1.0 + np.sqrt(eps), abs=1e-12)
    assert ed.lam[1] == pytest.approx(1.0 - np.sqrt(eps), abs=1e-12)


def test_eig_residuals_on_seeded_cases():
    for k in range(50):
        a = seeded_complex(3000 + k, 8, 8)
        ed = eig(a)
        scale = np.linalg.norm(a, 2)
        assert np.linalg.norm(a @ ed.x - ed.x * ed.lam[np.newaxis, :], 2) <= 1e-10 * scale
        assert np.allclose(np.linalg.norm(ed.x, axis=0), 1.0, atol=1e-13)
        # dual basis and left-eigenvector property
        n = a.shape[0]
        assert np.linalg.norm(ed.v.conj().T @ ed.x - np.eye(n), 2) \
            <= 1e-10 * max(ed.kappa_x, 1.0)
        left = a.conj().T @ ed.v - ed.v * np.conj(ed.lam)[np.newaxis, :]
        assert np.linalg.norm(left, 2) <= 1e-10 * scale


def test_eig_reassembly_for_moderate_condition():
    for k in range(30):
        a = seeded_complex(4000 + k, 6, 6)
        ed = eig(a)
        if ed.kappa_x > 1e6:
            continue
        rec = ed.x @ np.diag(ed.lam) @ np.linalg.inv(ed.x)
        assert np.linalg.norm(rec - a, 2) <= 1e-9 * np.linalg.norm(a, 2) * ed.kappa_x


def test_eig_deterministic_bit_patterns():
    a = seeded_complex(5, 7, 7)
    ed1 = eig(a)
    ed2 = eig(a.copy())
    assert ed1.x.tobytes() == ed2.x.tobytes()
    assert ed1.lam.tobytes() == ed2.lam.tobytes()


def test_eig_ordering_and_phase_convention():
    a = np.diag([1.0, -3.0, 2.0j, -2.0j]).astype(np.complex128)
    ed = eig(a)
    mags = np.abs(ed.lam)
    assert np.all(np.diff(mags) <= 1e-14)
    # |2j| == |-3| is false; check the tie pair 2j / -2j: +imag first
    i_pos = np.argmin(np.abs(ed.lam - 2.0j))
    i_neg = np.argmin(np.abs(ed.lam + 2.0j))
    assert i_pos < i_neg
    for j in range(4):
        lead = ed.x[np.argmax(np.abs(ed.x[:, j])), j]
        assert abs(lead.imag) <= 1e-14
        assert lead.real > 0


def test_eig_not_diagonalizable():
    with pytest.raises(NotDiagonalizable):
        eig(np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128))


# --- norms / cond ---

def test_norm_and_cond_examples():
    q, _ = np.linalg.qr(seeded_complex(9, 5, 5))
    assert cond2(q) == pytest.approx(1.0, abs=1e-12)
    eps = 1e-4
    x1 = np.array([[1.0, 1.0], [np.sqrt(eps), -np.sqrt(eps)], [0.0, 0.0]],
                  dtype=np.complex128)
    x1 = x1 / np.linalg.norm(x1, axis=0)
    assert cond2(x1) == pytest.approx(eps ** -0.5, rel=1e-10)
    spec, frob = norms(np.array([[3.0, 0.0], [0.0, 4.0]], dtype=np.complex128))
    assert spec == pytest.approx(4.0)
    assert frob == pytest.approx(5.0)
    with pytest.raises(Singular):
        cond2(np.zeros((2, 2), dtype=np.complex128))


# --- kron ---

def test_kron_block_structure():
    m = seeded_complex(10, 2, 2)
    k = kron(np.eye(2), m)
    assert np.allclose(k[:2, :2], m)
    assert np.allclose(k[2:, 2:], m)
    assert np.allclose(k[:2, 2:], 0.0)
    d = kron(np.diag([2.0, 3.0]).astype(np.complex128), np.eye(2))
    assert np.allclose(np.diagonal(d), [2.0, 2.0, 3.0, 3.0])


def test_kron_hand_expansion():
    a = np.array([[1.0, 2.0], [3.0, 4.0]], dtype=np.complex128)
    b = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=np.complex128)
    expected = np.zeros((4, 4), dtype=np.complex128)
    for i in range(2):
        for j in range(2):
            expected[2 * i: 2 * i + 2, 2 * j: 2 * j + 2] = a[i, j] * b
    assert np.array_equal(kron(a, b), expected)


def test_kron_size_guard():
    big = np.ones((3000, 1), dtype=np.complex128)
    with pytest.raises(SizeCap):
        kron(big, big.T)
