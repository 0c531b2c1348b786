import gc
import math
import weakref

import numpy as np
import pytest
import scipy.linalg
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
    TightGeneral,
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
    a, facts = gen_example(TightGeneral(r=2, delta=0.1, eps=1e-4))
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


def test_sep_frobenius_is_scale_covariant_far_from_one():
    # sep(c L1, c L2) = c sep(L1, L2); unscaled, the Ritz value 1/sep^2
    # underflowed at c = 1e160 and overflowed at c = 1e-160
    assert sep_frobenius([[1e160]], [[3e159]]) == pytest.approx(7e159, rel=1e-15)
    assert sep_frobenius([[1e-160]], [[3e-161]]) == pytest.approx(7e-161, rel=1e-15, abs=0)
    for r, m in ((1, 1), (2, 3), (4, 5)):
        l1, l2 = non_normal_pair(SplitMix64(40 + r), r, m)
        sep = sep_frobenius(l1, l2)
        scaled = [math.ldexp(sep_frobenius(math.ldexp(1.0, k) * l1, math.ldexp(1.0, k) * l2), -k)
                  for k in (500, -500, 1000, -1000)]
        # each is rescaled to the same blocks by a power of two
        assert scaled == [scaled[0]] * 4
        assert scaled[0] == pytest.approx(sep, rel=1e-13)


def test_sep_frobenius_reads_its_scale_from_the_real_and_imaginary_parts():
    # the modulus of 1.5e308+1.5e308j overflows, so reading the scale from it
    # left the blocks unscaled and sep was nan
    assert sep_frobenius([[1.5e308 + 1.5e308j]], [[1.4e308 + 1.4e308j]]) == pytest.approx(
        math.sqrt(2) * 1e307, rel=1e-14)


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


def report_blocks(a, r):
    """The blocks L1 = Q_X1* A Q_X1 and L2 = Q_V2* A Q_V2 that full_report
    hands to sep_frobenius."""
    part = partition(eig(a), TopKMagnitude(r))
    q1, q2 = part.qr_x1.q, part.qr_v2.q
    return q1.conj().T @ a @ q1, q2.conj().T @ a @ q2


def report_cases():
    """A 48x48 complex Gaussian matrix scaled by 1/sqrt(2n) split topk:12, and
    Example11 from eps = 1e-2 to 1e-24 split topk:2."""
    yield SplitMix64(48).complex_normals(48, 48) / np.sqrt(96.0), 12
    for k in range(2, 25):
        yield gen_example(Example11(10.0 ** -k))[0], 2


def schur_spy(monkeypatch):
    """The shapes of the blocks scipy.linalg.schur is called on from now."""
    calls = []
    schur = scipy.linalg.schur
    monkeypatch.setattr(scipy.linalg, "schur",
                        lambda a, *args, **kw: calls.append(np.shape(a)) or schur(a, *args, **kw))
    return calls


def test_full_report_makes_no_schur_call(monkeypatch):
    # L1 = R Lambda1 R^-1 is upper and L2 = R_V^-* Lambda2 R_V^* lower
    # triangular up to rounding, so sep takes both triangles as they are
    calls = schur_spy(monkeypatch)
    for a, r in report_cases():
        n = a.shape[0]
        rep = full_report(a, gen_gaussian_perturbation(n, 1e-6, 42), TopKMagnitude(r))
        assert 0.0 < rep.sep_frob < math.inf
    assert calls == []


def test_sep_frobenius_triangle_route_agrees_with_the_schur_route(monkeypatch):
    blocks = [report_blocks(a, r) for a, r in report_cases()]
    calls = schur_spy(monkeypatch)
    seps = [sep_frobenius(l1, l2) for l1, l2 in blocks]
    assert calls == []
    for (l1, l2), sep in zip(blocks, seps):
        assert sep == pytest.approx(splab.bounds._sep_schur(l1, l2), rel=1e-12, abs=0)


def test_sep_frobenius_of_triangular_blocks_is_the_dense_sep(monkeypatch):
    calls = schur_spy(monkeypatch)
    for k in range(10):
        l1, l2 = non_normal_pair(SplitMix64(3300 + k), 3, 4)
        upper, lower = np.triu(l1), np.tril(l2)
        for pair in ((upper, lower), (lower.T, upper.T), (lower, upper), (upper.T, lower.T)):
            assert sep_frobenius(*pair) == pytest.approx(dense_sep(*pair), rel=1e-10)
    assert calls == []


def test_sep_frobenius_takes_the_schur_route_when_the_certificate_fails(monkeypatch):
    l1 = np.triu(non_normal_pair(SplitMix64(61), 3, 1)[0])
    l2 = np.array([[0.25 - 0.5j]])
    sep = dense_sep(l1, l2)
    calls = schur_spy(monkeypatch)
    # a dropped corner of 1e-2 * SEP_TRIANGLE_TOL * sep is certified
    near = l1.copy()
    near[2, 0] = 1e-2 * splab.bounds.SEP_TRIANGLE_TOL * sep
    assert sep_frobenius(near, l2) == pytest.approx(sep, rel=1e-10)
    assert calls == []
    # one of 1e2 * SEP_TRIANGLE_TOL * sep is not: both blocks are Schur-factored
    near[2, 0] = 1e2 * splab.bounds.SEP_TRIANGLE_TOL * sep
    assert sep_frobenius(near, l2) == pytest.approx(dense_sep(near, l2), rel=1e-10)
    assert calls == [(3, 3), (1, 1)]
    # general blocks take it too
    l1, l2 = non_normal_pair(SplitMix64(62), 3, 2)
    calls.clear()
    assert sep_frobenius(l1, l2) == pytest.approx(dense_sep(l1, l2), rel=1e-10)
    assert calls == [(3, 3), (2, 2)]


def test_sep_of_triangles_stops_once_a_ritz_value_puts_it_below_the_floor(monkeypatch):
    l1, l2 = non_normal_pair(SplitMix64(63), 4, 5)
    r1, r2 = np.triu(l1), np.triu(l2)
    sep = dense_sep(r1, r2)
    steps = []
    ztrsyl = splab.bounds.ztrsyl
    monkeypatch.setattr(splab.bounds, "ztrsyl",
                        lambda *a, **kw: steps.append(1) or ztrsyl(*a, **kw))
    assert splab.bounds._sep_triangular(r1, r2) == pytest.approx(sep, rel=1e-10)
    full = len(steps)
    # every sep estimate lies above sep, so a floor below it stops nothing
    steps.clear()
    assert splab.bounds._sep_triangular(r1, r2, floor=0.5 * sep) == pytest.approx(sep, rel=1e-10)
    assert len(steps) == full
    # the first estimate, 1/||S^-1 w|| <= ||S||, is below a floor of 2 ||S||
    steps.clear()
    floor = 2.0 * (np.linalg.norm(r1, 2) + np.linalg.norm(r2, 2))
    assert sep < splab.bounds._sep_triangular(r1, r2, floor=floor) < floor
    assert len(steps) == 2 < full


def test_sep_frobenius_of_report_blocks_is_unitarily_invariant(monkeypatch):
    calls = schur_spy(monkeypatch)
    for seed in range(20):
        a, _, r = random_diagonalizable_case(seed)
        l1, l2 = report_blocks(a, r)
        g = SplitMix64(7700 + seed)
        u1 = np.linalg.qr(g.complex_normals(*l1.shape))[0]
        u2 = np.linalg.qr(g.complex_normals(*l2.shape))[0]
        calls.clear()
        sep = sep_frobenius(l1, l2)
        assert calls == []
        rotated = sep_frobenius(u1.conj().T @ l1 @ u1, u2.conj().T @ l2 @ u2)
        assert rotated == pytest.approx(sep, rel=1e-12, abs=0), seed
        assert len(calls) == (2 if l1.shape[0] > 1 or l2.shape[0] > 1 else 0)


def lanczos_steps(monkeypatch):
    """The number of Lanczos steps taken from now: two solves per step."""
    solves = []
    ztrsyl = splab.bounds.ztrsyl
    monkeypatch.setattr(splab.bounds, "ztrsyl",
                        lambda *a, **kw: solves.append(1) or ztrsyl(*a, **kw))
    return lambda: len(solves) // 2


def test_sep_frobenius_values_are_pinned_bit_for_bit(monkeypatch):
    # reprs recorded before the Krylov basis became one growing buffer
    calls = schur_spy(monkeypatch)
    a48 = SplitMix64(48).complex_normals(48, 48) / np.sqrt(96.0)
    blocks = {"0.04792392255360338": report_blocks(a48, 12),
              "0.20702142673141605": report_blocks(gen_example(Example11(1e-4))[0], 2),
              "0.20710678118654757": report_blocks(gen_example(Example11(1e-24))[0], 2),
              "0.12203474969472641": report_blocks(*random_diagonalizable_case(0)[::2]),
              "0.018749067464144772": report_blocks(*random_diagonalizable_case(3)[::2])}
    assert [repr(sep_frobenius(l1, l2)) for l1, l2 in blocks.values()] == list(blocks)
    assert calls == []
    # general blocks take the Schur route
    assert repr(sep_frobenius(*non_normal_pair(SplitMix64(62), 3, 2))) == "0.13007861404422935"
    assert calls == [(3, 3), (2, 2)]
    # a restart after the start vector spans an invariant Krylov space
    monkeypatch.setattr(splab.bounds, "_sep_vectors",
                        lambda size: iter([np.ones(size), np.eye(size)[0]]))
    l1 = np.array([[5.0, 3.0], [0.0, 4.0]], dtype=np.complex128)
    assert repr(sep_frobenius(l1, np.zeros((1, 1)))) == "3.162277660168379"


def test_sep_frobenius_grows_its_krylov_basis_in_place(monkeypatch):
    steps = lanczos_steps(monkeypatch)
    # a report split whose Lanczos run outlasts the first buffer of rows
    a = SplitMix64(24030).complex_normals(24, 24) / np.sqrt(48.0)
    assert repr(sep_frobenius(*report_blocks(a, 6))) == "0.15747649774442793"
    assert steps() == 17 > splab.bounds._SEP_BASIS_ROWS
    # a clustered spectrum that fills the buffer three times
    before = steps()
    l1 = np.diag(1.0 + 1e-3 * np.arange(40)).astype(np.complex128)
    assert sep_frobenius(l1, np.zeros((1, 1))) == 1.0
    assert steps() - before == 33


def test_sep_frobenius_peak_memory_at_n120():
    import tracemalloc
    a = SplitMix64(120).complex_normals(120, 120) / np.sqrt(240.0)
    l1, l2 = report_blocks(a, 30)
    sep = sep_frobenius(l1, l2)  # first call: lazy imports and caches
    tracemalloc.start()
    try:
        assert sep_frobenius(l1, l2) == sep
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # 11 steps of 2700-long vectors: one basis buffer of 16 rows is 0.66 MiB
    assert peak <= 1.25 * 2**20


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
    assert rep.kappa_V2 == pytest.approx(1.0, abs=1e-10)
    assert rep.kappa_X1 == pytest.approx(1e3, rel=1e-6)
    assert rep.delta0 <= rep.delta1 + 1e-15


def test_full_report_tight_family_magnitude():
    # witness angle scale eps/(2 delta^2) = 5e-3 at (delta, eps) = (0.1, 1e-4)
    a, facts = gen_example(TightGeneral(r=2, delta=0.1, eps=1e-4))
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
                classical_bound(part, rep.dA_spec, rep.delta0)
            assert rep.kappa_X1 == cond2(part.x1)
            assert rep.kappa_V2 == cond2(part.v2)
            assert rep.measured_sin == sin_theta_norm(part.qr_x1.q, part_t.qr_x1.q)
            assert rep.a == eig(a).a_norm + rep.dA_spec + np.max(np.abs(part.lambda2))


# Relative tolerance per report field under (A, dA) -> (U A U*, U dA U*), each
# at least 10x the worst difference seen over seeds 0-199 (measured_sin 9e-10,
# delta0 2e-9, the rest 6e-13).  t0_star is left out: its witness is not unique.
UNITARY_RTOL = {"measured_sin": 1e-8, "delta0": 3e-8, "new_value_perj": 1e-11,
                "new_value_dl": 1e-11, "delta1": 1e-11, "delta_lambda": 1e-11,
                "kappa_X1": 1e-11, "kappa_V2": 1e-11, "sep_frob": 1e-11,
                "dA_spec": 1e-11, "dA_frob": 1e-11, "a": 1e-11}


def test_full_report_is_invariant_under_unitary_similarity():
    for seed in range(50):
        a, da, r = random_diagonalizable_case(seed)
        n = a.shape[0]
        u, _ = np.linalg.qr(SplitMix64(10_000 + seed).complex_normals(n, n))
        base = full_report(a, da, TopKMagnitude(r), NearestAssignment())
        rot = full_report(u @ a @ u.conj().T, u @ da @ u.conj().T, TopKMagnitude(r),
                          NearestAssignment())
        for name, rtol in UNITARY_RTOL.items():
            want, got = getattr(base, name), getattr(rot, name)
            assert abs(got - want) <= rtol * abs(want), (seed, name, got, want)


def test_full_report_peak_memory_at_small_n():
    import tracemalloc
    a = SplitMix64(12).complex_normals(12, 12) / np.sqrt(24.0)
    da = gen_gaussian_perturbation(12, 1e-6, 12)
    full_report(a, da, TopKMagnitude(4))  # first call: lazy imports and caches
    tracemalloc.start()
    try:
        rep = full_report(a, da, TopKMagnitude(4))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rep.gap_ok and 0.0 < rep.delta0 < rep.delta1
    assert peak < 1e6


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


def test_analyze_releases_the_decomposition_of_a_before_eig_of_a_plus_da(monkeypatch):
    # only A's partition and ||A||_2 outlive eig(A), so its eigenvectors are
    # not held while eig(A + dA) runs
    a = SplitMix64(48).complex_normals(48, 48) / np.sqrt(96)
    refs, alive = [], []

    def spy(mat):
        if refs:
            gc.collect()
            alive.append(refs[0]() is not None)
        ed = eig(mat)
        refs.append(weakref.ref(ed))
        return ed

    monkeypatch.setattr(splab.bounds, "eig", spy)
    full_report(a, gen_gaussian_perturbation(48, 1e-6, 7), TopKMagnitude(12))
    assert len(refs) == 2 and alive == [False]


def test_classical_bound_dominates_tangent_distance():
    # the separation-derived bound is a tangent bound: compare it against the
    # tangent, not the sine, whenever it is non-vacuous
    from splab.angles import principal_angles
    checked = 0
    for k in range(100):
        a, da, r = random_diagonalizable_case(9500 + k)
        rep = full_report(a, da, TopKMagnitude(r), match=NearestAssignment())
        if not rep.classical_valid:
            continue
        part = partition(eig(a), TopKMagnitude(r))
        part_t = match_partition(eig(a + da), part, NearestAssignment())
        assert principal_angles(part.qr_x1.q, part_t.qr_x1.q).tan_norm <= rep.classical_value
        checked += 1
    assert checked >= 90
