import importlib
import math

import numpy as np
import pytest

import splab.linalg
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
    _disk_margins,
    _min_cost_assignment,
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


def test_partition_qr_uses_its_own_tolerances(monkeypatch):
    # kappa2(X1) = eps^{-1/2} = 1e5 for the near-Jordan block
    a, _ = gen_example(Example11(1e-10))
    ed = eig(a)
    assert partition(ed, TopKMagnitude(2)).qr_x1.kappa == pytest.approx(1e5, rel=1e-6)
    # the rank threshold is read when the QR factors are built
    monkeypatch.setattr(splab.linalg, "RANK_TOL", 1e-3)
    part = partition(ed, TopKMagnitude(2))
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
    x2 = ed.x[:, list(part.idx2)]
    v1 = ed.v[:, list(part.idx1)]
    for k, i in enumerate(part.idx1):
        x_rebuilt[:, i] = part.x1[:, k]
        v_rebuilt[:, i] = v1[:, k]
        lam_rebuilt[i] = part.lambda1[k]
    for k, i in enumerate(part.idx2):
        x_rebuilt[:, i] = x2[:, k]
        v_rebuilt[:, i] = part.v2[:, k]
        lam_rebuilt[i] = part.lambda2[k]
    assert np.array_equal(x_rebuilt, ed.x)
    assert np.array_equal(v_rebuilt, ed.v)
    assert np.array_equal(lam_rebuilt, ed.lam)
    # dual pairing survives the permutation
    stacked_v = np.hstack([v1, part.v2])
    stacked_x = np.hstack([part.x1, x2])
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


def _diagonal_eig(lam):
    return eig(np.diag(np.asarray(lam, dtype=np.complex128)))


def test_min_cost_assignment_is_linear_sum_assignment():
    # the certified assignment against scipy's solver on random cost matrices:
    # uniform, near-identity matchings of perturbed spectra, shuffled spectra,
    # small integers (tied row minima) and rows holding NaN
    import scipy.optimize

    g = np.random.default_rng(16)
    certified = 0
    for trial in range(2000):
        n = int(g.integers(2, 25))
        lam = g.standard_normal(n) + 1j * g.standard_normal(n)
        kind = trial % 5
        if kind == 0:
            cost = g.random((n, n))
        elif kind == 1:
            noise = g.standard_normal(n) + 1j * g.standard_normal(n)
            cost = np.abs(lam[:, np.newaxis] + 1e-3 * noise[:, np.newaxis] - lam)
        elif kind == 2:
            moved = lam[g.permutation(n)] + 0.5 * g.standard_normal(n)
            cost = np.abs(moved[:, np.newaxis] - lam)
        elif kind == 3:
            cost = g.integers(0, 4, (n, n)).astype(np.float64)
        else:
            cost = np.abs(lam[:, np.newaxis] - lam)
            cost[g.integers(0, n), g.integers(0, n)] = np.nan
            with pytest.raises(ValueError):
                scipy.optimize.linear_sum_assignment(cost)
            with pytest.raises(ValueError):
                _min_cost_assignment(cost)
            continue
        rows, cols = scipy.optimize.linear_sum_assignment(cost)
        assert rows.tolist() == list(range(n))
        assert _min_cost_assignment(cost) == cols.tolist()
        certified += len(set(cost.argmin(axis=1).tolist())) == n
    assert 300 < certified < 1600  # both the certificate and the solver decide


def test_match_partition_falls_back_to_scipy_on_tied_or_colliding_minima(monkeypatch):
    # a tied row minimum or two rows with the same nearest eigenvalue leave the
    # certificate undecided: scipy's solver decides, with the parent's result
    # and AssignmentAmbiguous message
    import scipy.optimize

    calls = []

    def spy(cost):
        calls.append(cost.shape)
        return solver(cost)

    solver = scipy.optimize.linear_sum_assignment
    monkeypatch.setattr(scipy.optimize, "linear_sum_assignment", spy)
    swap = "match_partition: swapping rows {} and {} changes the cost by {}"
    for lam, k, lam_t, expected in (
        ([2.0, 1.0], 1, [1.5, 1.5], swap.format(0, 1, "0.000e+00")),
        ([2.0, 1.0], 1, [1.5, 1.5 + 1e-15], swap.format(0, 1, "2.220e-15")),
        ([2.0, 1.0], 1, [1.9, 1.8], (0,)),
        ([3.0, 2.0, 1.0], 1, [2.5, 2.5, 1.0], swap.format(0, 1, "0.000e+00")),
        ([4.0, 3.0, 1.0, 0.5], 2, [3.5, 3.5, 0.75, 0.75], (0, 1)),
        ([4.0, 3.0, 1.0, 0.5], 2, [3.5, 2.0, 2.0, 0.75], swap.format(1, 2, "0.000e+00")),
        ([1.0, 1j, -1.0, -1j], 2, [0.0, 0.0, 2.0, 2j], (0, 1)),
    ):
        base = partition(_diagonal_eig(lam), TopKMagnitude(k))
        calls.clear()
        if isinstance(expected, str):
            with pytest.raises(AssignmentAmbiguous) as info:
                match_partition(_diagonal_eig(lam_t), base, NearestAssignment())
            assert str(info.value) == expected
        else:
            matched = match_partition(_diagonal_eig(lam_t), base, NearestAssignment())
            assert matched.idx1 == expected
        assert calls == [(len(lam), len(lam))]
    # distinct strict minima: the certificate decides and the solver is not called
    calls.clear()
    base = partition(_diagonal_eig([4.0, 3.0, 1.0, 0.5]), TopKMagnitude(2))
    matched = match_partition(_diagonal_eig([3.9, 3.1, 1.2, 0.4]), base, NearestAssignment())
    assert matched.idx1 == (0, 1)
    assert calls == []


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
    assert gap_delta0([1, 1], [1, 1]) == (0.0, 1 + 0j)
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
        # the supremum includes the centre-at-infinity limit: the widest strip
        # separating the sets, attained along some (p - q)/|p - q| or its normal
        pts = np.concatenate([l1, l2])
        diffs = (pts[:, np.newaxis] - pts[np.newaxis, :])[~np.eye(pts.size, dtype=bool)]
        dirs = np.concatenate([diffs, 1j * diffs]) / np.abs(np.concatenate([diffs, diffs]))
        p1 = (dirs.conj()[:, np.newaxis] * l1[np.newaxis, :]).real
        p2 = (dirs.conj()[:, np.newaxis] * l2[np.newaxis, :]).real
        strip = float(np.max(np.maximum(p1.min(axis=1) - p2.max(axis=1),
                                        p2.min(axis=1) - p1.max(axis=1))))
        diam = float(np.hypot(np.ptp(pts.real), np.ptp(pts.imag)))
        assert achieved >= strip - 1e-5 * diam
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


def test_gap_delta0_grid_memory_is_bounded_at_large_n():
    import tracemalloc
    lam = np.linalg.eigvals(SplitMix64(1).complex_normals(120, 120) / np.sqrt(240.0))
    tracemalloc.start()
    try:
        value, _ = gap_delta0(lam[:30], lam[30:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert 0.0 < value <= gap_delta1(lam[:30], lam[30:])
    assert peak < 1e6


def test_gap_delta0_lone_eigenvalue_is_exact():
    # one side a single eigenvalue: delta0 = delta1, attained by a vanishing
    # disk on that eigenvalue, so the witness is the eigenvalue itself
    cases = [([0.5], [1.1, 0.9]), ([1.1, 0.9, -0.3], [0.5]),
             ([0.25 - 0.5j], [1 + 1j, -2j, 3.0]), ([1 + 1j, -2j, 3.0], [0.25 - 0.5j]),
             ([2.0], [2.0, 1.0, 2.0]), ([1.0], [1.0]), ([1j, 1j], [1j])]
    g = SplitMix64(11)
    for _ in range(50):
        z = g.complex_normals(1, g.integer(2, 7))[0]
        cases.append((z[:1], z[1:]) if g.integer(0, 1) else (z[1:], z[:1]))
    for l1, l2 in cases:
        l1, l2 = np.asarray(l1, dtype=complex), np.asarray(l2, dtype=complex)
        value, witness = gap_delta0(l1, l2)
        assert value == gap_delta1(l1, l2)
        assert witness == complex((l1 if l1.size == 1 else l2)[0])
        assert float(_disk_margins(np.array([witness]), l1, l2)[0]) == value
    assert gap_delta0([1.0], [1.0]) == (0.0, 1.0)


def test_gap_delta0_screened_grid_is_the_full_grid_argmax(monkeypatch):
    # the screen must hand Nelder-Mead the same start as an exact evaluation
    # of every grid centre: the first-occurrence argmax, same value bits
    module = importlib.import_module("splab.partition")
    seen = []

    def spy(res, ims, l1, l2, unit):
        out = grid_argmax(res, ims, l1, l2, unit)
        seen.append((res, ims, l1, l2, out))
        return out

    grid_argmax = module._grid_argmax
    monkeypatch.setattr(module, "_grid_argmax", spy)
    g = SplitMix64(23)
    cases = [
        ([1 + 1j, -1 - 1j], [1 - 1j, -1 + 1j]),  # symmetric square, split diagonally
        ([0.0, 0.3], [1.0, 2.5, 0.7]),  # real only: one grid row
        ([0.5j, -1j], [2j, 3j]),  # imaginary only: one grid column
        ([1e-160 + 2e-160j, -1e-160], [3e-160j, 2e-160 - 1e-160j]),  # tiny scale
        ([1e150 + 2e150j, -1e150], [3e150j, 2e150 - 1e150j]),  # huge scale
    ]
    for _ in range(20):  # rounded: exact ties between grid centres
        z = np.round(2 * g.complex_normals(1, g.integer(4, 7))[0]) / 2
        cases.append((z[:2], z[2:]))
    for _ in range(200):
        n1 = g.integer(2, 4)
        z = g.complex_normals(1, n1 + g.integer(2, 4))[0]
        cases.append((z[:n1], z[n1:]))
    for l1, l2 in cases:
        gap_delta0(l1, l2)
    assert len(seen) == len(cases)
    for res, ims, l1, l2, (centre, value) in seen:
        grid = (res[np.newaxis, :] + 1j * ims[:, np.newaxis]).reshape(-1)
        full = _disk_margins(grid, l1, l2)
        best = int(np.argmax(full))
        assert centre == grid[best] and value == full[best]
    assert any(res.size == 1 for res, *_ in seen) and any(ims.size == 1 for _, ims, *_ in seen)


def test_gap_delta0_is_scale_covariant_far_from_one():
    # a spectrum beyond 2**±256 is searched scaled into [1/2, 1) by a power of
    # two, so at 2**k it gives 2**k times the value and witness of the same
    # spectrum at that scale, bit for bit; the width of diag(1e308, -1e308,
    # 5e307j, -5e307j) overflowed before, and its grid could not be built
    g = SplitMix64(17)
    for _ in range(10):
        z = g.complex_normals(1, g.integer(4, 9))[0]
        z = z / (2.0 * np.max(np.abs(z.view(np.float64))))  # largest part 1/2
        value, witness = gap_delta0(z[:2], z[2:])
        for k in (-1000, -300, 300, 1000):
            scaled_value, scaled_witness = gap_delta0(z[:2] * 2.0**k, z[2:] * 2.0**k)
            assert scaled_value == value * 2.0**k
            assert scaled_witness == witness * 2.0**k
    value, witness = gap_delta0([1e308, -1e308], [5e307j, -5e307j])
    half, half_witness = gap_delta0([0.5e308, -0.5e308], [2.5e307j, -2.5e307j])
    assert (value, witness) == (2 * half, 2 * half_witness)
    assert value == pytest.approx(5e307, rel=1e-7)


def test_gap_delta0_general_case_keeps_its_nelder_mead_path():
    # (delta0, t0_star) of three general-case spectra as computed before the
    # grid was screened; a changed Nelder-Mead start or path moves the witness
    def oracle_draw(seed):  # the grid-oracle test's draw
        g = SplitMix64(seed)
        n1, n2 = g.integer(1, 4), g.integer(1, 4)
        lam = np.array([complex(2 * g.uniform() - 1, 2 * g.uniform() - 1)
                        for _ in range(n1 + n2)])
        return lam[:n1], lam[n1:]

    z = SplitMix64(1).complex_normals(1, 12)[0]
    z = z[np.argsort(-np.abs(z), kind="stable")]
    for (l1, l2), value, witness in (
        (oracle_draw(7083), 0.7643668187413553, 0.8465282376705183 - 1.7446214943815694j),
        (oracle_draw(7188), 0.431708203823864, 5.823166991082887 + 1.8920736079862275j),
        ((z[:4], z[4:]), 0.30474710058932986, -0.2905812065132425 - 0.0430505879315598j),
    ):
        assert min(l1.size, l2.size) >= 2
        assert gap_delta0(l1, l2) == (value, witness)


def test_nelder_mead_takes_scipys_steps(monkeypatch):
    # the planar Nelder-Mead against scipy's own on every refinement that
    # gap_delta0 runs: x and fun bit for bit, ties and flat ridges included
    import scipy.optimize

    module = importlib.import_module("splab.partition")
    seen = []

    def spy(func, x0, y0, tol, maxiter):
        out = nelder_mead(func, x0, y0, tol, maxiter)
        seen.append((func, x0, y0, tol, maxiter, out))
        return out

    nelder_mead = module._nelder_mead
    monkeypatch.setattr(module, "_nelder_mead", spy)
    cases = []
    for seed in range(7000, 7500):  # the grid-oracle test's draws
        g = SplitMix64(seed)
        n1, n2 = g.integer(1, 4), g.integer(1, 4)
        lam = np.array([complex(2 * g.uniform() - 1, 2 * g.uniform() - 1)
                        for _ in range(n1 + n2)])
        cases.append((lam[:n1], lam[n1:]))
    for seed in range(90000, 90300):  # Gaussian spectra, some best centres far out
        g = SplitMix64(seed)
        n1, n2 = g.integer(2, 6), g.integer(2, 8)
        z = g.complex_normals(1, n1 + n2)[0]
        cases.append((z[:n1], z[n1:]))
    for n in (8, 12, 48, 96):  # workload sizes, topk:n/4
        z = _disk_spectrum(n, n)
        cases.append((z[: n // 4], z[n // 4:]))
    g = SplitMix64(16)
    for _ in range(40):  # rounded coordinates: tied values along the simplex
        z = np.round(2 * g.complex_normals(1, g.integer(4, 10))[0]) / 2
        cases.append((z[:2], z[2:]))
    for l1, l2 in cases:
        gap_delta0(l1, l2)
    assert len(seen) > 600
    for func, x0, y0, tol, maxiter, (x, y, fun) in seen:
        opt = scipy.optimize.minimize(lambda xy: func(xy[0], xy[1]), np.array([x0, y0]),
                                      method="Nelder-Mead",
                                      options={"xatol": tol, "fatol": tol, "maxiter": maxiter})
        assert np.array([x, y]).tobytes() == opt.x.tobytes()
        assert np.float64(fun).tobytes() == np.float64(opt.fun).tobytes()


def _full_grid_argmax(res, ims, l1, l2):
    # first-occurrence argmax of the exact margins over every grid centre,
    # evaluated 16 rows at a time so that n = 80 stays small in memory
    best_centre, best_value = None, -np.inf
    for row in range(0, ims.size, 16):
        grid = (res[np.newaxis, :] + 1j * ims[row:row + 16, np.newaxis]).reshape(-1)
        vals = _disk_margins(grid, l1, l2)
        k = int(np.argmax(vals))
        if vals[k] > best_value:
            best_centre, best_value = grid[k], vals[k]
    return best_centre, best_value


def _hard_spectra():
    # spectra with long flat ridges, exact ties, many eigenvalues or extreme
    # scales, as pairs (l1, l2)
    g = SplitMix64(31)
    cases = []
    for _ in range(24):  # 2..40 eigenvalues a side
        n1 = g.integer(2, 40)
        z = g.complex_normals(1, n1 + g.integer(2, 40))[0]
        cases.append((z[:n1], z[n1:]))
    for m1, m2 in ((3, 4), (5, 8), (8, 13), (16, 24)):  # concentric rings
        inner = np.exp(2j * np.pi * np.arange(m1) / m1)
        outer = 3.0 * np.exp(2j * np.pi * (np.arange(m2) + 0.5) / m2)
        cases += [(inner, outer), (outer, inner)]
    for _ in range(6):  # collinear real sets, interleaved and apart: one grid row
        x = np.sort(g.normals(1, g.integer(4, 16))[0]).astype(np.complex128)
        cases += [(x[::2], x[1::2]), (x[: x.size // 2], x[x.size // 2:])]
    for _ in range(3):  # imaginary and slanted collinear sets
        x = np.sort(g.normals(1, g.integer(4, 12))[0])
        cases += [(1j * x[::2], 1j * x[1::2]), ((1 + 2j) * x[::2], (1 + 2j) * x[1::2])]
    for _ in range(12):  # rounded coordinates: exact ties between grid centres
        z = np.round(2 * g.complex_normals(1, g.integer(4, 12))[0]) / 2
        cases.append((z[:2], z[2:]))
    for scale in (1e-150, 1e150):
        for _ in range(4):
            z = scale * g.complex_normals(1, g.integer(4, 20))[0]
            cases.append((z[:2], z[2:]))
    return cases


def test_grid_argmax_is_the_full_grid_argmax_on_hard_spectra(monkeypatch):
    # the block screen drops whole blocks of centres; on spectra with long
    # flat ridges, exact ties, many eigenvalues or extreme scales it must
    # still return the exact full-grid argmax, centre and value bits
    module = importlib.import_module("splab.partition")
    seen = []

    def spy(res, ims, l1, l2, unit):
        out = grid_argmax(res, ims, l1, l2, unit)
        seen.append((res, ims, l1, l2, out))
        return out

    grid_argmax = module._grid_argmax
    monkeypatch.setattr(module, "_grid_argmax", spy)
    cases = _hard_spectra()
    for l1, l2 in cases:
        gap_delta0(l1, l2)
    assert len(seen) == len(cases)
    for res, ims, l1, l2, (centre, value) in seen:
        expected_centre, expected_value = _full_grid_argmax(res, ims, l1, l2)
        assert np.complex128(centre).tobytes() == np.complex128(expected_centre).tobytes()
        assert np.float64(value).tobytes() == np.float64(expected_value).tobytes()
    assert any(res.size == 1 for res, *_ in seen) and any(ims.size == 1 for _, ims, *_ in seen)


def _broadcast_disk_margins(t, l1, l2):
    # the disk margins by one (eigenvalues x centres) array a side
    d1 = np.abs(l1[:, np.newaxis] - t[np.newaxis, :])
    d2 = np.abs(l2[:, np.newaxis] - t[np.newaxis, :])
    return np.maximum(d2.min(axis=0) - d1.max(axis=0), d1.min(axis=0) - d2.max(axis=0))


def test_disk_margins_equal_the_broadcast_formula_on_full_grids(monkeypatch):
    # the running extremes compute the same floats per centre as the broadcast
    # formula, bit for bit, on every centre of the hard spectra's grids
    module = importlib.import_module("splab.partition")
    grids = []

    def spy(res, ims, l1, l2, diam):
        grids.append((res, ims, l1, l2))
        return grid_argmax(res, ims, l1, l2, diam)

    grid_argmax = module._grid_argmax
    monkeypatch.setattr(module, "_grid_argmax", spy)
    for l1, l2 in _hard_spectra():
        gap_delta0(l1, l2)
    for res, ims, l1, l2 in grids:
        for row in range(0, ims.size, 16):  # 16 rows at a time keeps the reference small
            grid = (res[np.newaxis, :] + 1j * ims[row:row + 16, np.newaxis]).reshape(-1)
            assert _disk_margins(grid, l1, l2).tobytes() == \
                _broadcast_disk_margins(grid, l1, l2).tobytes()


def test_disk_margins_memory_is_linear_in_the_centres():
    import tracemalloc
    g = SplitMix64(5)
    lam = g.complex_normals(1, 120)[0]
    t = g.complex_normals(1, 20000)[0]
    tracemalloc.start()
    try:
        _disk_margins(t, lam[:30], lam[30:])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 2e6


def _disk_spectrum(seed, n):
    # n points uniform in the unit disk, as the eigenvalues of a complex
    # Gaussian matrix scaled by 1/sqrt(2n) fill it, largest magnitude first;
    # drawn by rejection, so no LAPACK build moves them
    g = SplitMix64(seed)
    pts = []
    while len(pts) < n:
        z = complex(2 * g.uniform() - 1, 2 * g.uniform() - 1)
        if abs(z) <= 1.0:
            pts.append(z)
    z = np.array(pts)
    return z[np.argsort(-np.abs(z), kind="stable")]


def test_gap_delta0_keeps_its_workload_scale_witnesses():
    # (delta0, t0_star) of topk:n/4 splits at workload sizes, as computed
    # before the grid screen went to two levels
    for n, value, witness in (
        (48, 0.0454932859370355, 0.02047735561690235 - 0.021677152398322713j),
        (96, 0.007983053279120966, -0.0007408395554164623 - 0.001076742223762576j),
        (120, 0.001925522139617164, -0.005455153404497533 - 0.0032708579017190634j),
    ):
        z = _disk_spectrum(n, n)
        assert gap_delta0(z[: n // 4], z[n // 4:]) == (value, witness)


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
