import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import splab.bounds
from splab.angles import sin_theta_norm
from splab.bounds import (
    analyze,
    classical_bound,
    full_report,
    new_bound,
    sep_frobenius,
    sep_lower_bound,
    stewart_condition,
)
from splab.errors import GapViolated
from splab.experiments import (
    Example11,
    TightR2,
    gen_example,
    gen_gaussian_perturbation,
)
from splab.linalg import cond2, eig
from splab.partition import NearestAssignment, SameSelector, TopKMagnitude, match_partition, partition
from splab.rng import SplitMix64
from splab.verify import random_diagonalizable_case


def example11_parts(eps, da):
    a, _ = gen_example(Example11(eps))
    part = partition(eig(a), TopKMagnitude(2))
    part_t = match_partition(eig(a + da), part, SameSelector(TopKMagnitude(2)))
    return a, part, part_t


# --- classical bound ---

def analytic_classical(eps, da_spec):
    # closed forms for the near-Jordan family: k2(X1) = eps^{-1/2}, k2(V2) = 1,
    # disk gap = 1/2 - sqrt(eps)
    numer = 2.0 * eps ** -0.5 * da_spec
    delta0 = 0.5 - math.sqrt(eps)
    return numer / (delta0 - numer)


@pytest.mark.parametrize("eps,reference", [
    (1e-2, 5.00e-5),
    (1e-10, 0.67),
])
def test_classical_bound_reference_rows(eps, reference):
    da = gen_gaussian_perturbation(3, 1e-6, 42)
    a, part, part_t = example11_parts(eps, da)
    from splab.partition import gap_delta0
    delta0, _ = gap_delta0(part.lambda1, part.lambda2)
    value, valid = classical_bound(part, 1e-6, delta0)
    assert valid
    assert value == pytest.approx(reference, rel=0.02)
    assert value == pytest.approx(analytic_classical(eps, 1e-6), rel=1e-6)


def test_classical_bound_vacuous_is_inf():
    da = gen_gaussian_perturbation(3, 1e-6, 42)
    _, part, part_t = example11_parts(1e-4, da)
    value, valid = classical_bound(part, 1.0, 0.49)
    assert value == math.inf
    assert not valid


def test_classical_bound_unit_kappas_reduces_to_davis_kahan():
    # Hermitian-style case: orthonormal eigenvectors, unit condition numbers
    a = np.diag([2.0, 1.0, -1.0]).astype(np.complex128)
    part = partition(eig(a), TopKMagnitude(1))
    da_spec, delta0 = 1e-3, 1.0
    value, valid = classical_bound(part, da_spec, delta0)
    expected = 2.0 * da_spec / (delta0 - 2.0 * da_spec)
    assert valid
    assert value == expected


# --- product bound ---

def test_new_bound_zero_perturbation():
    a, _ = gen_example(Example11(1e-4))
    da = np.zeros((3, 3), dtype=np.complex128)
    part = partition(eig(a), TopKMagnitude(2))
    part_t = match_partition(eig(a), part, NearestAssignment())
    assert new_bound(a, da, part, part_t) == (0.0, 0.0)


def test_new_bound_example11_magnitude_and_dominance():
    eps = 1e-6
    da = gen_gaussian_perturbation(3, 1e-6, 42)
    a, part, part_t = example11_parts(eps, da)
    perj, dl = new_bound(a, da, part, part_t)
    assert perj <= dl * (1.0 + 1e-12)
    # same closed-form skeleton as the bound, evaluated independently
    a_spec = np.linalg.norm(a, 2)
    da_spec = np.linalg.norm(da, 2)
    da_frob = np.linalg.norm(da, "fro")
    a_quant = a_spec + da_spec + 0.5
    delta_l = min(abs(l - 0.5) for l in part_t.lambda1)
    expected_dl = (da_frob / a_quant) * (1.0 + a_quant / delta_l) ** 2
    assert dl == pytest.approx(expected_dl, rel=1e-8)
    assert dl == pytest.approx(2e-5, rel=0.5)
    assert sin_theta_norm(part.qr_x1.q, part_t.qr_x1.q) <= perj


def test_new_bound_gap_violated():
    a = np.diag([2.0, 1.0]).astype(np.complex128)
    part = partition(eig(a), TopKMagnitude(1))
    ed_t = eig(np.diag([1.0, 0.5]).astype(np.complex128))
    part_t = match_partition(ed_t, part, SameSelector(TopKMagnitude(1)))
    with pytest.raises(GapViolated):
        new_bound(a, np.eye(2, dtype=np.complex128) * 1e-3, part, part_t)


def test_new_bound_scale_invariance():
    a, facts = gen_example(TightR2(delta=0.1, eps=1e-4))
    da = facts.perturbation
    part = partition(eig(a), TopKMagnitude(2))
    part_t = match_partition(eig(a + da), part, NearestAssignment())
    base = new_bound(a, da, part, part_t)
    for t in (1e-3, 1e3):
        part_s = partition(eig(t * a), TopKMagnitude(2))
        part_st = match_partition(eig(t * (a + da)), part_s, NearestAssignment())
        scaled = new_bound(t * a, t * da, part_s, part_st)
        assert scaled[0] == pytest.approx(base[0], rel=1e-10)
        assert scaled[1] == pytest.approx(base[1], rel=1e-10)


# --- sep ---

def test_sep_frobenius_diagonal_equals_pairwise_gap():
    l1 = np.diag([1.1, 0.9]).astype(np.complex128)
    l2 = np.diag([0.5]).astype(np.complex128)
    assert sep_frobenius(l1, l2) == pytest.approx(0.4, abs=1e-12)
    same = np.diag([0.7]).astype(np.complex128)
    assert sep_frobenius(same, same) == pytest.approx(0.0, abs=1e-14)


def test_sep_frobenius_matches_dense_enumeration_oracle():
    g = SplitMix64(99)
    l1 = g.complex_normals(3, 3)
    l2 = g.complex_normals(2, 2)
    # independent assembly: columns are vec(E_ij L1 - L2 E_ij) over basis matrices
    cols = []
    for j in range(3):
        for i in range(2):
            e = np.zeros((2, 3), dtype=np.complex128)
            e[i, j] = 1.0
            cols.append((e @ l1 - l2 @ e).reshape(-1, order="F"))
    dense = np.stack(cols, axis=1)
    expected = np.linalg.svd(dense, compute_uv=False)[-1]
    assert sep_frobenius(l1, l2) == pytest.approx(expected, rel=1e-12)


def test_sep_frobenius_diagonal_seeded_sweep():
    for k in range(50):
        g = SplitMix64(1100 + k)
        n1 = g.integer(1, 4)
        n2 = g.integer(1, 4)
        d1 = np.array([complex(2 * g.uniform() - 1, 2 * g.uniform() - 1)
                       for _ in range(n1)])
        d2 = np.array([complex(2 * g.uniform() - 1, 2 * g.uniform() - 1)
                       for _ in range(n2)])
        gap = min(abs(x - y) for x in d1 for y in d2)
        got = sep_frobenius(np.diag(d1), np.diag(d2))
        assert abs(got - gap) <= 1e-12


def dense_sep(l1, l2):
    """Oracle: smallest singular value of the dense Kronecker operator
    kron(L1^T, I) - kron(I, L2) of T -> T L1 - L2 T."""
    op = np.kron(l1.T, np.eye(l2.shape[0])) - np.kron(np.eye(l1.shape[0]), l2)
    return np.linalg.svd(op, compute_uv=False)[-1]


def non_normal_pair(g, r, m):
    """Complex Gaussian blocks with their strictly upper parts tripled."""
    l1 = g.complex_normals(r, r)
    l2 = g.complex_normals(m, m)
    return l1 + 2.0 * np.triu(l1, 1), l2 + 2.0 * np.triu(l2, 1)


def test_sep_frobenius_matches_dense_kronecker_oracle_seeded_sweep():
    for k in range(150):
        g = SplitMix64(2600 + k)
        l1, l2 = non_normal_pair(g, g.integer(1, 6), g.integer(1, 6))
        assert sep_frobenius(l1, l2) == pytest.approx(dense_sep(l1, l2), rel=1e-10)
    # the 2x1 blocks of the near-Jordan family at its most ill-conditioned point
    a, part, _ = example11_parts(1e-10, np.zeros((3, 3), dtype=np.complex128))
    l1 = part.qr_x1.q.conj().T @ a @ part.qr_x1.q
    l2 = part.qr_v2.q.conj().T @ a @ part.qr_v2.q
    assert sep_frobenius(l1, l2) == pytest.approx(dense_sep(l1, l2), rel=1e-10)
    assert sep_frobenius(l2, l1) == pytest.approx(dense_sep(l2, l1), rel=1e-10)


def test_sep_frobenius_shared_eigenvalue_is_exactly_zero():
    l1, _ = non_normal_pair(SplitMix64(5), 4, 1)
    assert sep_frobenius(l1, l1) == 0.0
    jordan = np.array([[0.5, 3.0], [0.0, 2.0]], dtype=np.complex128)
    assert sep_frobenius(jordan, np.array([[2.0]], dtype=np.complex128)) == 0.0


def test_sep_frobenius_smallest_operators():
    # r(n-r) = 1: S is multiplication by l1 - l2
    assert sep_frobenius([[1.5 + 0.5j]], [[0.5]]) == pytest.approx(abs(1.0 + 0.5j), rel=1e-15)
    # r(n-r) = 2, both ways round
    l1, l2 = non_normal_pair(SplitMix64(8), 2, 1)
    assert sep_frobenius(l1, l2) == pytest.approx(dense_sep(l1, l2), rel=1e-10)
    assert sep_frobenius(l2, l1) == pytest.approx(dense_sep(l2, l1), rel=1e-10)


def test_sep_frobenius_restarts_when_the_start_is_an_inner_eigenvector(monkeypatch):
    # S: T -> T L1 has singular values sqrt(40) and sqrt(10); the all-ones
    # vector belongs to sqrt(40), an inner eigenvalue of S^-* S^-1
    l1 = np.array([[5.0, 3.0], [0.0, 4.0]], dtype=np.complex128)
    l2 = np.array([[0.0]], dtype=np.complex128)
    assert dense_sep(l1, l2) == pytest.approx(math.sqrt(10.0), rel=1e-14)
    assert sep_frobenius(l1, l2) == pytest.approx(math.sqrt(10.0), rel=1e-12)
    # started from that vector the Krylov space is invariant at once
    monkeypatch.setattr(splab.bounds, "_sep_vectors",
                        lambda size: iter([np.ones(size), np.eye(size)[0]]))
    assert sep_frobenius(l1, l2) == pytest.approx(math.sqrt(10.0), rel=1e-12)
    # diagonal d: after the breakdown on e1 (1/d^2 = 1/4) the restart vector's
    # first two Ritz values stay below 1/4, yet its Krylov space reaches 1/1
    l1 = np.diag([2.0, 1.0, 4.0, 3.0, 5.0]).astype(np.complex128)
    starts = [np.eye(5)[0], np.array([0.0, 0.01, 1.0, 1.0, 1.0])]
    monkeypatch.setattr(splab.bounds, "_sep_vectors", lambda size: iter(starts))
    assert sep_frobenius(l1, l2) == pytest.approx(1.0, rel=1e-12)
    # the top eigenvalue found before a restart is kept after it
    starts = [np.eye(5)[1], np.ones(5)]
    assert sep_frobenius(l1, l2) == pytest.approx(1.0, rel=1e-12)


def test_sep_frobenius_gives_nan_when_the_iteration_cap_is_hit(monkeypatch):
    a, part, _ = example11_parts(1e-4, np.zeros((3, 3), dtype=np.complex128))
    l1 = part.qr_x1.q.conj().T @ a @ part.qr_x1.q
    l2 = part.qr_v2.q.conj().T @ a @ part.qr_v2.q
    ok = full_report(a, gen_gaussian_perturbation(3, 1e-6, 42), TopKMagnitude(2))
    assert ok.stewart_condition_ok
    monkeypatch.setattr(splab.bounds, "SEP_MAX_ITER", 1)
    assert math.isnan(sep_frobenius(l1, l2))
    rep = full_report(a, gen_gaussian_perturbation(3, 1e-6, 42), TopKMagnitude(2))
    assert math.isnan(rep.sep_frob)
    assert not rep.stewart_condition_ok
    # nothing else in the report depends on sep
    assert (rep.new_value_perj, rep.classical_value, rep.measured_sin) == (
        ok.new_value_perj, ok.classical_value, ok.measured_sin)


@settings(derandomize=True, database=None, max_examples=60, deadline=None)
@given(r=st.integers(1, 4), m=st.integers(1, 4), seed=st.integers(0, 2**32 - 1))
def test_sep_frobenius_unitary_invariance_and_gap_bound(r, m, seed):
    g = SplitMix64(seed)
    l1, l2 = non_normal_pair(g, r, m)
    u = np.linalg.qr(g.complex_normals(r, r))[0]
    w = np.linalg.qr(g.complex_normals(m, m))[0]
    sep = sep_frobenius(l1, l2)
    assert sep_frobenius(u @ l1 @ u.conj().T, w @ l2 @ w.conj().T) == pytest.approx(sep, rel=1e-10)
    gaps = np.abs(np.linalg.eigvals(l1)[:, np.newaxis] - np.linalg.eigvals(l2)[np.newaxis, :])
    assert sep <= np.min(gaps) * (1 + 1e-12)


def test_sep_lower_bound_examples():
    assert sep_lower_bound(0.4, 1.0, 1.0) == 0.4
    assert sep_lower_bound(0.49, 100.0, 1.0) == pytest.approx(4.9e-3)
    assert sep_lower_bound(0.0, 5.0, 7.0) == 0.0


def test_stewart_condition_cases():
    assert stewart_condition(0.0, 1.0, 0.5)
    assert not stewart_condition(1e-3, 1.0, 0.0)
    # near-Jordan family numbers: condition holds at the moderate (1e-2, 1e-6) point
    da = gen_gaussian_perturbation(3, 1e-6, 42)
    a, part, part_t = example11_parts(1e-2, da)
    l1_block = part.qr_x1.q.conj().T @ a @ part.qr_x1.q
    l2_block = part.qr_v2.q.conj().T @ a @ part.qr_v2.q
    sep = sep_frobenius(l1_block, l2_block)
    assert stewart_condition(1e-6, float(np.linalg.norm(a, 2)), sep)


# --- full report ---

def test_full_report_zero_perturbation():
    a, _ = gen_example(Example11(1e-4))
    rep = full_report(a, np.zeros((3, 3), dtype=np.complex128), TopKMagnitude(2))
    assert rep.measured_sin <= 1e-12
    assert rep.new_value_perj == 0.0
    assert rep.new_value_dl == 0.0
    assert rep.classical_valid
    assert rep.gap_ok and rep.dominance_ok


def test_full_report_example11_matches_reference_columns():
    a, _ = gen_example(Example11(1e-6))
    da = gen_gaussian_perturbation(3, 1e-6, 42)
    rep = full_report(a, da, TopKMagnitude(2))
    assert rep.classical_value == pytest.approx(4.00e-3, rel=0.02)
    assert 1e-7 <= rep.measured_sin <= 1e-5
    assert rep.measured_sin <= rep.new_value_perj <= rep.new_value_dl * (1 + 1e-12)
    assert rep.kappa_v2 == pytest.approx(1.0, abs=1e-10)
    assert rep.kappa_x1 == pytest.approx(1e3, rel=1e-6)
    assert rep.gap.delta0 <= rep.gap.delta1 + 1e-15


def test_full_report_tight_family_magnitude():
    # witness angle scale eps/(2 delta^2) = 5e-3 at (delta, eps) = (0.1, 1e-4)
    a, facts = gen_example(TightR2(delta=0.1, eps=1e-4))
    rep = full_report(a, facts.perturbation, facts.selector)
    lead = facts.witness_sin_leading
    assert rep.measured_sin == pytest.approx(lead, rel=1.0)
    assert rep.measured_sin <= rep.new_value_perj


def test_full_report_dominance_smoke():
    for k in range(60):
        a, da, r = random_diagonalizable_case(9000 + k)
        for match in (SameSelector(TopKMagnitude(r)), NearestAssignment()):
            rep = full_report(a, da, TopKMagnitude(r), match=match)
            assert rep.gap_ok
            assert rep.measured_sin <= rep.new_value_perj <= rep.new_value_dl * (1 + 1e-12)
            # full_report reuses what it already holds; the public entry points
            # recompute each quantity and must agree bit for bit
            part = partition(eig(a), TopKMagnitude(r))
            part_t = match_partition(eig(a + da), part, match)
            assert (rep.new_value_perj, rep.new_value_dl) == new_bound(a, da, part, part_t)
            assert (rep.classical_value, rep.classical_valid) == \
                classical_bound(part, rep.da_spec, rep.gap.delta0)
            assert rep.kappa_x1 == cond2(part.x1)
            assert rep.kappa_v2 == cond2(part.v2)
            assert rep.measured_sin == sin_theta_norm(part.qr_x1.q, part_t.qr_x1.q)
            assert rep.a == eig(a).a_norm + rep.da_spec + np.max(np.abs(part.lambda2))


def test_full_report_beyond_the_old_kronecker_size_cap():
    # r(n-r) = 3600: the dense operator would hold 1.3e7 entries
    a = SplitMix64(120).complex_normals(120, 120) / np.sqrt(240.0)
    rep = full_report(a, gen_gaussian_perturbation(120, 1e-8, 120), TopKMagnitude(60))
    part = partition(eig(a), TopKMagnitude(60))
    gap = np.min(np.abs(part.lambda1[:, np.newaxis] - part.lambda2[np.newaxis, :]))
    assert math.isfinite(rep.sep_frob)
    assert 0.0 < rep.sep_frob <= gap


def test_analyze_zero_gap_raises_and_full_report_degrades():
    # the reapplied selector keeps 1.0, which collides with A's complement
    a = np.diag([2.0, 1.0]).astype(np.complex128)
    da = np.diag([-1.0, -0.5]).astype(np.complex128)
    run = analyze(a, da, TopKMagnitude(1))
    assert run.delta_lambda == 0.0
    with pytest.raises(GapViolated):
        run.product_bound
    rep = full_report(a, da, TopKMagnitude(1))
    assert not rep.gap_ok
    assert rep.new_value_perj == math.inf and rep.new_value_dl == math.inf


def test_analyze_perturb_matches_a_fresh_analysis():
    # perturb keeps the A half and reruns only eig(A + dA) and the match
    for k in range(10):
        a, da, r = random_diagonalizable_case(9200 + k)
        run = analyze(a, da, TopKMagnitude(r), NearestAssignment())
        moved = run.perturb(0.1 * da)
        fresh = analyze(a, 0.1 * da, TopKMagnitude(r), NearestAssignment())
        assert moved.part is run.part
        assert moved.part_tilde.idx1 == fresh.part_tilde.idx1
        assert moved.product_bound == fresh.product_bound
        assert moved.measured_sin == fresh.measured_sin
        assert moved.da_norms == fresh.da_norms


def test_classical_bound_dominates_tangent_distance():
    # the separation-derived bound is a tangent bound: compare it against the
    # tangent, not the sine, whenever it is non-vacuous
    from splab.angles import tan_theta_norm
    checked = 0
    for k in range(100):
        a, da, r = random_diagonalizable_case(9500 + k)
        rep = full_report(a, da, TopKMagnitude(r), match=NearestAssignment())
        if not rep.classical_valid:
            continue
        part = partition(eig(a), TopKMagnitude(r))
        part_t = match_partition(eig(a + da), part, NearestAssignment())
        assert tan_theta_norm(part.qr_x1.q, part_t.qr_x1.q) <= rep.classical_value
        checked += 1
    assert checked >= 90
