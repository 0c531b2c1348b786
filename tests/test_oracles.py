import dataclasses
import math

import numpy as np
import pytest
import scipy.linalg

from splab.bounds import Analysis, analyze
from splab.errors import EnclosureViolated, GapViolated
from splab.experiments import Example11, gen_example, gen_unit_perturbation
from splab.linalg import cond2, eig
from splab.oracles import (
    Contour,
    OracleContext,
    brute_force_sin_theta,
    build_oracle_context,
    contour_coupling_matrix,
    contour_projector,
    coupling_row,
    elementary_symmetric,
    enclosing_circle,
    hadamard_identity_residual,
    hadamard_identity_threshold,
    reciprocal_gap_matrix,
    residue_coupling_matrix,
)
from splab.partition import NearestAssignment, TopKMagnitude, partition
from splab.verify import random_clustered_case, random_diagonalizable_case


def example11_context(eps=1e-4, eps1=1e-6, i=3, j=1):
    a, _ = gen_example(Example11(eps))
    da = gen_unit_perturbation(3, i, j, eps1)
    return build_oracle_context(a, da, TopKMagnitude(2))


# --- reciprocal gap matrix ---

def test_reciprocal_gap_scalar():
    f = reciprocal_gap_matrix([2.0], [0.0])
    assert f.shape == (1, 1)
    assert f[0, 0] == 0.5


def test_reciprocal_gap_example11_row():
    eps = 1e-4
    ctx = example11_context(eps=eps)
    root = math.sqrt(eps)
    # single complement eigenvalue 1/2; columns follow the kept ordering
    expected = np.array([[1.0 / (1.0 + root - 0.5), 1.0 / (1.0 - root - 0.5)]])
    assert np.allclose(ctx.gap_recip, expected, atol=1e-10)


def test_reciprocal_gap_hand_table_and_coincidence():
    f = reciprocal_gap_matrix([3.0, 1.0 + 1.0j], [0.0, 2.0])
    expected = np.array([
        [1.0 / 3.0, 1.0 / (1.0 + 1.0j)],
        [1.0, 1.0 / (-1.0 + 1.0j)],
    ])
    assert np.allclose(f, expected, atol=1e-14)
    with pytest.raises(GapViolated):
        reciprocal_gap_matrix([1.0, 2.0], [2.0])


# --- the context is the analysis ---

def _same_bits(x, y) -> bool:
    if isinstance(x, np.ndarray):
        return x.dtype == y.dtype and x.shape == y.shape and x.tobytes() == y.tobytes()
    if dataclasses.is_dataclass(x):
        return type(x) is type(y) and all(
            _same_bits(getattr(x, f.name), getattr(y, f.name)) for f in dataclasses.fields(x))
    return type(x) is type(y) and x == y


def test_context_is_the_analysis_bit_for_bit():
    assert dataclasses.fields(OracleContext) == dataclasses.fields(Analysis)
    for seed in range(100):
        a, da, r = random_diagonalizable_case(seed)
        ctx = build_oracle_context(a, da, TopKMagnitude(r), NearestAssignment())
        run = analyze(a, da, TopKMagnitude(r), NearestAssignment())
        assert isinstance(ctx, Analysis)
        for f in dataclasses.fields(Analysis):
            assert _same_bits(getattr(ctx, f.name), getattr(run, f.name)), (seed, f.name)


def test_kprod_matches_condition_numbers_of_the_r_factors():
    for seed in range(100):
        a, da, r = random_diagonalizable_case(seed)
        ctx = build_oracle_context(a, da, TopKMagnitude(r), NearestAssignment())
        ref = cond2(ctx.part.qr_v2.r) * cond2(ctx.part_tilde.qr_x1.r)
        assert ctx.kprod == pytest.approx(ref, rel=1e-12, abs=0.0), seed


def test_context_raises_gap_violated_on_a_coincident_pair():
    # A + dA = I: the perturbed kept eigenvalue 1 is A's complement eigenvalue
    a = np.diag([2.0, 1.0]).astype(np.complex128)
    da = np.diag([-1.0, 0.0]).astype(np.complex128)
    with pytest.raises(GapViolated, match="coincident eigenvalues"):
        build_oracle_context(a, da, TopKMagnitude(1))


# --- Hadamard-form identity ---

def test_hadamard_identity_zero_perturbation():
    a, _ = gen_example(Example11(1e-4))
    ctx = build_oracle_context(a, np.zeros((3, 3), dtype=np.complex128),
                               TopKMagnitude(2))
    assert hadamard_identity_residual(ctx) <= 1e-14


def test_hadamard_identity_example11():
    ctx = example11_context(eps=1e-4, eps1=1e-6)
    assert hadamard_identity_residual(ctx) <= 1e-10


def test_hadamard_identity_seeded_suite_margin():
    worst = 0.0
    for k in range(100):
        a, da, r = random_diagonalizable_case(31000 + k)
        ctx = build_oracle_context(a, da, TopKMagnitude(r), NearestAssignment())
        resid = hadamard_identity_residual(ctx)
        assert resid <= hadamard_identity_threshold(ctx)
        worst = max(worst, resid)
    assert worst <= 1e-8


# --- elementary symmetric polynomials ---

def test_elementary_symmetric_hand_cases():
    assert np.allclose(elementary_symmetric([5.0]), [5.0])
    assert np.allclose(elementary_symmetric([1.0, 2.0]), [3.0, 2.0])
    assert np.allclose(elementary_symmetric([1.0, 2.0, 3.0]), [6.0, 11.0, 6.0])


def test_elementary_symmetric_matches_polynomial_expansion():
    vals = np.array([0.3 + 1j, -0.7, 2.2 - 0.5j, 1.1j])
    sig = elementary_symmetric(vals)
    coeffs = np.poly(vals)  # leading-one coefficients of prod (z - v)
    # q(z) = z^r - s1 z^{r-1} + s2 z^{r-2} - ...
    expected = np.concatenate([[1.0], [(-1.0) ** k * sig[k - 1] for k in range(1, 5)]])
    assert np.allclose(coeffs, expected, atol=1e-12)


# --- characteristic-polynomial row formula ---

def test_coupling_row_r1_collapse():
    a = np.diag([2.0, 1.0, 0.5]).astype(np.complex128)
    g = gen_unit_perturbation(3, 2, 1, 1e-3)
    ctx = build_oracle_context(a, g, TopKMagnitude(1))
    for i in range(2):
        lhat = ctx.part_tilde.lambda1[0] - ctx.part.lambda2[i]
        direct = (ctx.part.v2[:, i].conj() @ ctx.da @ ctx.part_tilde.qr_x1.q) / lhat
        assert np.allclose(coupling_row(ctx, i), direct, atol=1e-14)


def test_coupling_row_matches_hadamard_block_example11():
    ctx = example11_context(eps=1e-4, eps1=1e-6)
    row = coupling_row(ctx, 0)
    assert np.linalg.norm(row - ctx.coupling[0]) <= 1e-10


def test_coupling_rows_match_on_seeded_suite():
    for k in range(100):
        a, da, r = random_diagonalizable_case(32000 + k)
        ctx = build_oracle_context(a, da, TopKMagnitude(r), NearestAssignment())
        rebuilt = np.vstack([coupling_row(ctx, i)
                             for i in range(ctx.coupling.shape[0])])
        scale = max(np.linalg.norm(ctx.coupling, 2), 1e-300)
        assert np.linalg.norm(rebuilt - ctx.coupling, 2) / scale <= 1e-8


def test_proof_chain_row_inequality():
    # every row norm is bounded by (||b_i|| / a) * prod_j (1 + a / |lhat_j|)
    for k in range(100):
        a, da, r = random_diagonalizable_case(33000 + k)
        ctx = build_oracle_context(a, da, TopKMagnitude(r), NearestAssignment())
        a_quant = (np.linalg.norm(a, 2) + np.linalg.norm(da, 2)
                   + max(abs(ctx.part.lambda2)))
        for i in range(ctx.coupling.shape[0]):
            lhat = ctx.part_tilde.lambda1 - ctx.part.lambda2[i]
            b_norm = np.linalg.norm(ctx.part.v2[:, i].conj() @ da)
            bound = (b_norm / a_quant) * np.prod(1.0 + a_quant / np.abs(lhat))
            assert np.linalg.norm(ctx.coupling[i]) <= bound * (1.0 + 1e-9)


# --- contour machinery ---

def test_contour_projector_rank_one_diagonal():
    a = np.diag([1.0, 0.0]).astype(np.complex128)
    proj = contour_projector(a, eig(a), Contour(center=1.0, radius=0.3, nodes=64))
    expected = np.diag([1.0, 0.0]).astype(np.complex128)
    assert np.linalg.norm(proj - expected, 2) <= 1e-12


def test_contour_projector_example11_and_side2():
    a, _ = gen_example(Example11(1e-4))
    ed = eig(a)
    part = partition(ed, TopKMagnitude(2))
    contour = Contour(center=1.0, radius=0.3, nodes=256)
    proj = contour_projector(a, ed, contour)
    assert np.linalg.norm(proj - part.x1 @ ed.v[:, list(part.idx1)].conj().T, 2) <= 1e-8
    proj2 = np.eye(3) - proj
    assert np.linalg.norm(proj2 - ed.x[:, list(part.idx2)] @ part.v2.conj().T, 2) <= 1e-8


def test_contour_projector_node_doubling_contracts():
    a, _ = gen_example(Example11(1e-4))
    ed = eig(a)
    part = partition(ed, TopKMagnitude(2))
    ref = part.x1 @ ed.v[:, list(part.idx1)].conj().T

    def err(nodes):
        proj = contour_projector(a, ed, Contour(center=1.0, radius=0.3, nodes=nodes))
        return np.linalg.norm(proj - ref, 2)

    e16, e32, e64 = err(16), err(32), err(64)
    assert e32 <= e16 / 10.0
    assert e64 <= e32 / 10.0


def test_contour_projector_sums_one_solve_per_node_in_node_order():
    # the stacked solve and the running sum repeat a per-node loop's arithmetic
    a11, _ = gen_example(Example11(1e-4))
    for a, radius, nodes in ((a11, 0.3, 16), (a11, 0.3, 256),
                             (np.diag([1.0, 0.0]).astype(np.complex128), 0.9, 64)):
        contour = Contour(center=1.0, radius=radius, nodes=nodes)
        eye = np.eye(a.shape[0], dtype=np.complex128)
        by_node, by_scipy = np.zeros_like(eye), np.zeros_like(eye)
        for z, w in zip(*contour.points()):
            by_node += w * np.linalg.solve(z * eye - a, eye)
            by_scipy += w * scipy.linalg.solve(z * eye - a, eye)
        proj = contour_projector(a, eig(a), contour)
        assert proj.tobytes() == by_node.tobytes()
        assert np.linalg.norm(proj - by_scipy, 2) <= 1e-13 * np.linalg.norm(by_scipy, 2)


def test_contour_projector_errors():
    a = np.diag([1.0, 0.0]).astype(np.complex128)
    ed = eig(a)
    with pytest.raises(EnclosureViolated):
        contour_projector(a, ed, Contour(center=1.0, radius=0.99, nodes=64))
    with pytest.raises(EnclosureViolated):
        contour_projector(a, ed, Contour(center=0.5, radius=2.0, nodes=64))
    # both eigenvalues lie on this circle, and a node lands exactly on each:
    # the margin band rejects the contour before any resolvent is formed
    with pytest.raises(EnclosureViolated):
        contour_projector(a, ed, Contour(center=0.5, radius=0.5, nodes=64))


def test_residue_equals_hadamard_exactly():
    ctx = example11_context()
    hadamard = ctx.gap_recip * (ctx.part.v2.conj().T @ ctx.da @ ctx.part_tilde.x1)
    assert np.array_equal(residue_coupling_matrix(ctx), hadamard)


def test_residue_vs_quadrature_zero_and_seeded():
    a, _ = gen_example(Example11(1e-4))
    ctx0 = build_oracle_context(a, np.zeros((3, 3), dtype=np.complex128),
                                TopKMagnitude(2))
    assert np.linalg.norm(residue_coupling_matrix(ctx0), 2) == 0.0
    assert np.linalg.norm(contour_coupling_matrix(ctx0), 2) <= 1e-14

    a, da, r = random_clustered_case(4242)
    ctx = build_oracle_context(a, da, TopKMagnitude(r), NearestAssignment())
    res = residue_coupling_matrix(ctx)
    quad = contour_coupling_matrix(ctx)
    assert np.linalg.norm(res - quad, 2) <= 1e-8


def test_contour_minimum_node_count():
    from splab.errors import SpecViolation
    with pytest.raises(SpecViolation):
        Contour(center=0.0, radius=1.0, nodes=8).points()


def test_enclosing_circle_properties_and_failure():
    c = enclosing_circle([1.0 + 0.1j, 1.1], [0.2, -0.3j])
    assert abs(c.center - np.mean([1.0 + 0.1j, 1.1])) <= 1e-14
    for lam in (1.0 + 0.1j, 1.1):
        assert abs(lam - c.center) <= c.radius * (1 - 0.05) + 1e-12
    for lam in (0.2, -0.3j):
        assert abs(lam - c.center) >= c.radius * (1 + 0.05) - 1e-12
    with pytest.raises(EnclosureViolated):
        enclosing_circle([0.0, 2.0], [1.0])


# --- brute-force distance oracle ---

def test_brute_force_trivial_and_zero_effect():
    a, _ = gen_example(Example11(1e-4))
    zero = np.zeros((3, 3), dtype=np.complex128)
    assert brute_force_sin_theta(a, zero, TopKMagnitude(2)) <= 1e-12
    da = gen_unit_perturbation(3, 1, 1, 1e-6)
    assert brute_force_sin_theta(a, da, TopKMagnitude(2)) <= 1e-10


def test_brute_force_agrees_with_pipeline():
    from splab.angles import sin_theta_norm
    for k in range(20):
        a, da, r = random_diagonalizable_case(34000 + k)
        part = partition(eig(a), TopKMagnitude(r))
        from splab.partition import match_partition
        part_t = match_partition(eig(a + da), part, NearestAssignment())
        pipeline = sin_theta_norm(part.qr_x1.q, part_t.qr_x1.q)
        oracle = brute_force_sin_theta(a, da, TopKMagnitude(r))
        assert oracle == pytest.approx(pipeline, abs=1e-9, rel=1e-6)


def test_brute_force_example11_closed_form_perturbed_basis():
    # exact perturbed spanning vectors for the (3,1) unit perturbation
    eps, eps1 = 1e-4, 1e-6
    root = math.sqrt(eps)
    a, _ = gen_example(Example11(eps))
    da = gen_unit_perturbation(3, 3, 1, eps1)
    span = np.array([
        [1.0, 1.0],
        [root, -root],
        [2 * eps1 / (1 + 2 * root), 2 * eps1 / (1 - 2 * root)],
    ], dtype=np.complex128)
    q_exact = np.linalg.qr(span)[0]
    e12 = np.eye(3, dtype=np.complex128)[:, :2]
    resid = q_exact - e12 @ (e12.conj().T @ q_exact)
    expected = np.linalg.svd(resid, compute_uv=False)[0]
    got = brute_force_sin_theta(a, da, TopKMagnitude(2))
    assert got == pytest.approx(expected, rel=1e-6)
    assert got <= 10 * eps1
