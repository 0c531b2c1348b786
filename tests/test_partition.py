import math

import numpy as np
import pytest

from splab.config import DEFAULT_TOL
from splab.errors import (
    AssignmentAmbiguous,
    BoundaryAmbiguity,
    EmptySide,
    RankDeficient,
    SpecViolation,
)
from splab.experiments import Example11, gen_example, gen_gaussian_perturbation, gen_unit_perturbation
from splab.linalg import eig
from splab.partition import (
    Disk,
    IndexSet,
    NearestAssignment,
    SameSelector,
    TopKMagnitude,
    format_selector,
    gap_delta0,
    gap_delta1,
    match_partition,
    parse_selector,
    partition,
)
from splab.rng import SplitMix64


def test_selector_parse_and_format_round_trip():
    for text, expected in (
        ("topk:2", TopKMagnitude(2)),
        ("indices:0,1,4", IndexSet((0, 1, 4))),
        ("disk:1.0+0.0i:0.3:inside", Disk(1.0 + 0.0j, 0.3, True)),
        ("disk:0.5-1i:2:outside", Disk(0.5 - 1.0j, 2.0, False)),
    ):
        sel = parse_selector(text)
        assert sel == expected
        assert parse_selector(format_selector(sel)) == sel
    with pytest.raises(SpecViolation):
        parse_selector("nope:1")
    with pytest.raises(SpecViolation):
        parse_selector("topk:two")


def test_partition_example11_top2():
    a, facts = gen_example(Example11(1e-2))
    part = partition(eig(a), TopKMagnitude(2))
    assert part.r == 2
    assert np.allclose(sorted(part.lambda1.real, reverse=True), [1.1, 0.9], atol=1e-12)
    assert np.allclose(part.lambda2, [0.5], atol=1e-12)
    # the studied subspace is exactly span(e1, e2)
    assert np.linalg.norm(part.x1[2, :]) <= 1e-12
    assert np.linalg.norm(part.qr_x1.q[2, :]) <= 1e-12


def test_partition_qr_uses_its_own_tolerances():
    # kappa2(X1) = eps^{-1/2} = 1e5 for the near-Jordan block
    a, _ = gen_example(Example11(1e-10))
    ed = eig(a)
    assert partition(ed, TopKMagnitude(2)).qr_x1.kappa == pytest.approx(1e5, rel=1e-6)
    part = partition(ed, TopKMagnitude(2), DEFAULT_TOL.override(rank_tol=1e-3))
    with pytest.raises(RankDeficient):
        part.qr_x1


def test_partition_index_set_on_diagonal():
    part = partition(eig(np.diag([3.0, 2.0, 1.0]).astype(np.complex128)),
                     IndexSet((0,)))
    assert np.allclose(part.lambda1, [3.0])
    assert np.allclose(sorted(part.lambda2.real, reverse=True), [2.0, 1.0])


def test_partition_disk_selector():
    a, _ = gen_example(Example11(1e-2))
    part = partition(eig(a), Disk(1.0 + 0.0j, 0.3, True))
    assert sorted(np.round(part.lambda1.real, 10)) == [0.9, 1.1]
    part_out = partition(eig(a), Disk(1.0 + 0.0j, 0.3, False))
    assert np.allclose(part_out.lambda1, [0.5])


def test_partition_errors():
    ed = eig(np.diag([3.0, 2.0, 1.0]).astype(np.complex128))
    with pytest.raises(EmptySide):
        partition(ed, TopKMagnitude(3))
    with pytest.raises(EmptySide):
        partition(ed, Disk(0.0j, 100.0, True))
    with pytest.raises(BoundaryAmbiguity):
        partition(ed, Disk(0.0j, 2.0, True))


def test_partition_unpermute_round_trip():
    g = SplitMix64(321)
    a = g.complex_normals(7, 7)
    ed = eig(a)
    part = partition(ed, IndexSet((1, 3, 4)))
    n = 7
    x_rebuilt = np.empty_like(ed.x)
    v_rebuilt = np.empty_like(ed.v)
    lam_rebuilt = np.empty_like(ed.lam)
    for k, i in enumerate(part.idx1):
        x_rebuilt[:, i] = part.x1[:, k]
        v_rebuilt[:, i] = part.v1[:, k]
        lam_rebuilt[i] = part.lambda1[k]
    for k, i in enumerate(part.idx2):
        x_rebuilt[:, i] = part.x2[:, k]
        v_rebuilt[:, i] = part.v2[:, k]
        lam_rebuilt[i] = part.lambda2[k]
    assert np.array_equal(x_rebuilt, ed.x)
    assert np.array_equal(v_rebuilt, ed.v)
    assert np.array_equal(lam_rebuilt, ed.lam)
    # dual pairing survives the permutation
    stacked_v = np.hstack([part.v1, part.v2])
    stacked_x = np.hstack([part.x1, part.x2])
    assert np.linalg.norm(stacked_v.conj().T @ stacked_x - np.eye(n), 2) \
        <= 1e-10 * max(ed.kappa_x, 1.0)


def test_match_partition_zero_perturbation():
    a, _ = gen_example(Example11(1e-4))
    ed = eig(a)
    base = partition(ed, TopKMagnitude(2))
    matched = match_partition(ed, base, NearestAssignment())
    assert matched.idx1 == base.idx1
    assert np.array_equal(np.sort(matched.lambda1), np.sort(base.lambda1))
    same = match_partition(ed, base, SameSelector(TopKMagnitude(2)))
    assert same.idx1 == base.idx1


def test_match_partition_unit_perturbation_keeps_eigenvalues():
    # the (3,1) unit perturbation leaves the spectrum unchanged
    eps, eps1 = 1e-4, 1e-6
    a, _ = gen_example(Example11(eps))
    da = gen_unit_perturbation(3, 3, 1, eps1)
    base = partition(eig(a), TopKMagnitude(2))
    matched = match_partition(eig(a + da), base, SameSelector(TopKMagnitude(2)))
    root = math.sqrt(eps)
    assert np.allclose(sorted(matched.lambda1.real, reverse=True),
                       [1.0 + root, 1.0 - root], atol=1e-10)
    assert np.allclose(matched.lambda1.imag, 0.0, atol=1e-10)


def test_match_partition_gaussian_delta_lambda():
    eps = 1e-4
    a, _ = gen_example(Example11(eps))
    da = gen_gaussian_perturbation(3, 1e-6, 424242)
    base = partition(eig(a), TopKMagnitude(2))
    matched = match_partition(eig(a + da), base, NearestAssignment())
    dl = gap_delta1(matched.lambda1, base.lambda2)
    assert dl == pytest.approx(0.5 - math.sqrt(eps), abs=1e-4)


def test_match_partition_ambiguous():
    base = partition(eig(np.diag([2.0, 1.0]).astype(np.complex128)), TopKMagnitude(1))
    ed_t = eig(np.diag([1.5, 1.5 + 1e-15]).astype(np.complex128))
    with pytest.raises(AssignmentAmbiguous):
        match_partition(ed_t, base, NearestAssignment())


# --- gaps ---

def test_gap_delta1_examples():
    assert gap_delta1([1.1, 0.9], [0.5]) == pytest.approx(0.4, abs=1e-15)
    assert gap_delta1([1.0], [1.0]) == 0.0
    assert gap_delta1([0.0, 3.0], [1.0]) == pytest.approx(1.0)
    assert gap_delta1([2.0 + 1.0j], [0.0]) == pytest.approx(math.sqrt(5.0))


def test_gap_delta0_example11():
    eps = 1e-2
    root = math.sqrt(eps)
    val, t0 = gap_delta0([1.0 + root, 1.0 - root], [0.5])
    assert val == pytest.approx(0.5 - root, abs=1e-9)
    # the witness achieves the reported value
    margin = min(abs(0.5 - t0), 0.0 + abs(0.5 - t0)) - max(abs(1.0 + root - t0),
                                                           abs(1.0 - root - t0))
    other = min(abs(1.0 + root - t0), abs(1.0 - root - t0)) - abs(0.5 - t0)
    assert max(margin, other) == pytest.approx(val, abs=1e-9)


def test_gap_delta0_degenerate_and_clusters():
    val, _ = gap_delta0([1.0], [1.0])
    assert val == 0.0
    val, _ = gap_delta0([0.0, 0.1], [1.0, 1.1])
    assert val == pytest.approx(0.9, abs=1e-8)


def test_gap_delta0_grid_oracle_and_delta1_dominance():
    # dense independent grid lower-bounds the optimizer; delta1 upper-bounds it
    for k in range(500):
        g = SplitMix64(7000 + k)
        n1 = g.integer(1, 4)
        n2 = g.integer(1, 4)
        lam = [complex(2 * g.uniform() - 1, 2 * g.uniform() - 1)
               for _ in range(n1 + n2)]
        l1, l2 = np.array(lam[:n1]), np.array(lam[n1:])
        achieved, witness = gap_delta0(l1, l2)
        d1 = gap_delta1(l1, l2)
        assert achieved <= d1 + 1e-12
        if k % 10 == 0:
            pts = np.concatenate([l1, l2])
            res = np.linspace(pts.real.min() - 1.0, pts.real.max() + 1.0, 41)
            ims = np.linspace(pts.imag.min() - 1.0, pts.imag.max() + 1.0, 41)
            best = 0.0
            for tr in res:
                for ti in ims:
                    t = complex(tr, ti)
                    m1 = min(abs(z - t) for z in l1) - max(abs(z - t) for z in l2)
                    m2 = min(abs(z - t) for z in l2) - max(abs(z - t) for z in l1)
                    best = max(best, m1, m2)
            assert best <= achieved + 1e-9


def test_delta_lambda_stable_under_all_unit_perturbations():
    eps, eps1 = 1e-4, 1e-6
    a, _ = gen_example(Example11(eps))
    base = partition(eig(a), TopKMagnitude(2))
    expected = 0.5 - math.sqrt(eps)
    for i in range(1, 4):
        for j in range(1, 4):
            da = gen_unit_perturbation(3, i, j, eps1)
            matched = match_partition(eig(a + da), base, NearestAssignment())
            dl = gap_delta1(matched.lambda1, base.lambda2)
            assert abs(dl - expected) <= 1e-3
