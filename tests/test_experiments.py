import math

import numpy as np
import pytest

from splab.bounds import full_report
from splab.errors import IndexOutOfRange, SpecViolation
from splab.experiments import (
    Example11,
    TightGeneral,
    V2NecessityN,
    gen_example,
    gen_gaussian_perturbation,
    gen_unit_perturbation,
    run_special_perturbation_suite,
    run_table1_sweep,
    run_tightness_sweep,
    run_v2_necessity,
)
from splab.io import sweep_to_csv, sweep_to_json
from splab.linalg import cond2, eig
from splab.partition import TopKMagnitude, partition


# --- generators ---

def test_example11_display_and_facts():
    eps = 1e-4
    a, facts = gen_example(Example11(eps))
    assert np.array_equal(a, np.array([[1, 1, 0], [eps, 1, 0], [0, 0, 0.5]],
                                      dtype=np.complex128))
    ed = eig(a)
    assert np.allclose(sorted(ed.lam.real, reverse=True),
                       sorted([l.real for l in facts.lambda1 + facts.lambda2],
                              reverse=True), atol=1e-12)
    assert np.allclose(ed.lam.imag, 0.0, atol=1e-12)
    part = partition(ed, facts.selector)
    assert cond2(part.x1) == pytest.approx(facts.kappa_x1, rel=1e-8)
    # the exact spanning vectors reproduce the same subspace
    span = facts.x1_span / np.linalg.norm(facts.x1_span, axis=0)
    overlap = np.linalg.svd(np.linalg.qr(span)[0].conj().T @ part.qr_x1.q,
                            compute_uv=False)
    assert np.allclose(overlap, 1.0, atol=1e-10)
    # V2 has one column, so its condition number is exactly 1
    assert full_report(a, np.zeros_like(a), facts.selector).kappa_V2 == \
        facts.kappa_v2_leading == 1.0


def test_tight_family_displays():
    a, facts = gen_example(TightGeneral(r=2, delta=0.1, eps=1e-4))
    expected = np.array([[1.0, 0, 0], [1.0, 0.9, 0], [0, 0, 0.8]],
                        dtype=np.complex128)
    assert np.array_equal(a, expected)
    assert facts.perturbation[2, 1] == 1e-4
    assert np.count_nonzero(facts.perturbation) == 1
    # triangular: exact eigenvalues
    ed = eig(a)
    assert np.allclose(sorted(ed.lam.real, reverse=True), [1.0, 0.9, 0.8], atol=1e-12)

    a3, facts3 = gen_example(TightGeneral(r=3, delta=0.1, eps=1e-5))
    assert a3.shape == (4, 4)
    assert np.allclose(np.diagonal(a3), [1.0, 0.9, 0.8, 0.7])
    assert a3[1, 0] == 1.0 and a3[2, 1] == 1.0
    assert a3[3, 2] == 0.0
    assert facts3.perturbation[3, 2] == 1e-5
    assert facts3.witness[0] == 1.0
    assert facts3.witness[-1] == pytest.approx((1e-5) / (6 * 0.1 ** 3), rel=1e-12)
    for mat, fam in ((a, facts), (a3, facts3)):
        assert full_report(mat, fam.perturbation, fam.selector).kappa_V2 == \
            fam.kappa_v2_leading == 1.0


def test_tight_family_analytic_facts_match_computed_subspace():
    # the recorded spanning vectors and witness must live in the computed
    # perturbed invariant subspace
    from splab.partition import NearestAssignment, match_partition

    a, facts = gen_example(TightGeneral(r=2, delta=0.1, eps=1e-4))
    part = partition(eig(a), TopKMagnitude(2))
    part_t = match_partition(eig(a + facts.perturbation), part, NearestAssignment())
    q_t = part_t.qr_x1.q
    span = facts.x1_tilde_span / np.linalg.norm(facts.x1_tilde_span, axis=0)
    for vec in np.concatenate([span.T, [facts.witness / np.linalg.norm(facts.witness)]]):
        resid = vec - q_t @ (q_t.conj().T @ vec)
        assert np.linalg.norm(resid) <= 1e-10


def test_necessity_family_displays():
    a, facts = gen_example(V2NecessityN(n=3, delta=0.05, delta1=0.05, eps=1e-5))
    expected = np.array([[1.05, 0, 0], [0, 1.0, 0], [0, 0.5, 0.95]],
                        dtype=np.complex128)
    assert np.array_equal(a, expected)
    assert facts.perturbation[1, 0] == 1e-5
    an, factsn = gen_example(V2NecessityN(n=8, delta=0.05, delta1=0.05, eps=1e-5))
    assert an.shape == (8, 8)
    assert an[2, 1] == 0.5
    assert np.allclose(np.diagonal(an)[3:], 0.9)
    # analytic dual-basis conditioning: kappa2(V2) ~ 1/delta1
    part = partition(eig(a), TopKMagnitude(1))
    assert cond2(part.v2) == pytest.approx(1.0 / 0.05, rel=0.05)
    # the recorded leading term 1/delta1 is off by O(delta1^2), relatively
    for delta1 in (0.1, 0.01, 0.001):
        for spec in (V2NecessityN(n=3, delta=0.05, delta1=delta1, eps=1e-6),
                     V2NecessityN(n=5, delta=0.05, delta1=delta1, eps=1e-6)):
            mat, fam = gen_example(spec)
            kappa = full_report(mat, fam.perturbation, fam.selector).kappa_V2
            assert fam.kappa_v2_leading == 1.0 / delta1
            assert abs(kappa / fam.kappa_v2_leading - 1.0) <= 2.0 * delta1 ** 2


def test_generator_guards():
    for bad in (Example11(0.0), Example11(1.0), Example11(-1e-3)):
        with pytest.raises(SpecViolation):
            gen_example(bad)
    with pytest.raises(SpecViolation):
        gen_example(TightGeneral(r=2, delta=0.1, eps=1e-3))  # eps > 0.01 delta^2
    with pytest.raises(SpecViolation):
        gen_example(TightGeneral(r=4, delta=0.3, eps=1e-6))  # r*delta >= 1
    with pytest.raises(SpecViolation):
        gen_example(V2NecessityN(n=3, delta=0.5, delta1=0.005, eps=1e-6))
    with pytest.raises(SpecViolation):
        gen_example(V2NecessityN(n=2, delta=0.05, delta1=0.005, eps=1e-6))


def test_unit_perturbation():
    da = gen_unit_perturbation(3, 1, 1, 1e-6)
    assert da[0, 0] == 1e-6
    assert np.count_nonzero(da) == 1
    assert np.linalg.norm(da, 2) == 1e-6
    assert np.linalg.norm(da, "fro") == 1e-6
    with pytest.raises(IndexOutOfRange):
        gen_unit_perturbation(3, 0, 1, 1e-6)
    with pytest.raises(IndexOutOfRange):
        gen_unit_perturbation(3, 1, 4, 1e-6)


def test_gaussian_perturbation_properties():
    da = gen_gaussian_perturbation(3, 1e-6, 42)
    assert np.linalg.norm(da, 2) == pytest.approx(1e-6, rel=1e-14)
    assert np.array_equal(da, gen_gaussian_perturbation(3, 1e-6, 42))
    other = gen_gaussian_perturbation(3, 1e-6, 43)
    assert not np.array_equal(da, other)
    ratio = np.linalg.norm(da, "fro") / np.linalg.norm(da, 2)
    assert 1.0 <= ratio <= math.sqrt(3.0) + 1e-12
    assert np.allclose(da.imag, 0.0)


# --- sweeps ---

def test_table1_sweep_qualitative_invariants():
    eps_grid = [1e-2, 1e-4, 1e-6, 1e-8, 1e-10]
    res = run_table1_sweep(eps_grid, 1e-6, 42)
    classical = [row["classical"] for row in res.rows]
    assert all(b > a for a, b in zip(classical, classical[1:]))
    measured = [row["measured_sin"] for row in res.rows]
    assert max(measured) / min(measured) < 10.0
    new_dl = [row["new_dl"] for row in res.rows]
    assert max(new_dl) / min(new_dl) < 10.0
    assert len(res.notes) == 1 and "1e-08" in res.notes[0]


def test_table1_sweep_deterministic_serialization():
    res1 = run_table1_sweep([1e-2, 1e-6], 1e-6, 42)
    res2 = run_table1_sweep([1e-2, 1e-6], 1e-6, 42)
    assert sweep_to_csv(res1) == sweep_to_csv(res2)
    assert sweep_to_json(res1) == sweep_to_json(res2)
    assert sweep_to_csv(res1) != sweep_to_csv(run_table1_sweep([1e-2, 1e-6], 1e-6, 7))


def test_tightness_sweep_slopes():
    for r in (2, 3):
        res = run_tightness_sweep(r, [0.2, 0.1, 0.05], 0.01)
        summary = dict(res.summary)
        assert abs(summary["slope_adjusted"] + r) <= 0.2
        assert 1.0 / 3.0 <= summary["ratio_leading_min"] \
            <= summary["ratio_leading_max"] <= 3.0


def test_tightness_sweep_r1_degenerate_family():
    # decoupled last row: measured distance scales like eps/delta
    res = run_tightness_sweep(1, [0.2, 0.1, 0.05], 0.01)
    summary = dict(res.summary)
    assert abs(summary["slope_adjusted"] + 1) <= 0.2
    assert 1.0 / 3.0 <= summary["ratio_leading_min"] \
        <= summary["ratio_leading_max"] <= 3.0


def test_v2_necessity_records():
    rec = run_v2_necessity(0.05, 0.005, 1e-6)
    assert rec["strict_regime"]
    assert rec["measured_le_bound"]
    assert rec["measured_exceeds_reduced"]
    assert rec["measured_sin"] == pytest.approx(rec["witness_sin_leading"], rel=1.0)
    rec8 = run_v2_necessity(0.05, 0.005, 1e-6, n=8)
    assert rec8["measured_le_bound"] and rec8["measured_exceeds_reduced"]
    balanced = run_v2_necessity(0.05, 0.05, 1e-6)
    assert not balanced["strict_regime"]
    assert balanced["measured_le_bound"]


def test_special_perturbation_suite_rows():
    rows = run_special_perturbation_suite(1e-4, 1e-6)
    assert len(rows) == 9
    for row in rows:
        assert row["pass"]
        if row["zero_expected"]:
            assert row["measured_sin"] <= 1e-10
        else:
            assert (row["i"], row["j"]) in ((3, 1), (3, 2))
            assert row["measured_sin"] <= 1e-5
