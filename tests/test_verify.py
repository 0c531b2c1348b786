import importlib

import numpy as np
import pytest

from splab import bounds
from splab.angles import sin_theta_norm
from splab.bounds import new_bound
from splab.errors import SpecViolation
from splab.linalg import eig
from splab.oracles import build_oracle_context
from splab.partition import (
    NearestAssignment,
    TopKMagnitude,
    gap_delta1,
    match_partition,
    partition,
)
from splab.verify import (
    SAMPLE_MIN_GAP,
    SUITES,
    random_clustered_case,
    random_diagonalizable_case,
    run_contour_suite,
    run_dominance_suite,
    run_identity_suite,
    run_suite,
)


def test_record_schema_and_determinism():
    a = run_identity_suite("lemma32", 7, 5)
    b = run_identity_suite("lemma32", 7, 5)
    assert a == b
    assert [rec["case_id"] for rec in a] == [f"lemma32-{i:03d}" for i in range(5)]
    for rec in a:
        assert set(rec) == {"case_id", "seed", "residual", "threshold", "pass"}


@pytest.mark.parametrize("base_seed", [1, 7, 1000])
def test_identity_suites_pass_at_other_seeds(base_seed):
    for kind in ("lemma32", "lemma33"):
        records = run_identity_suite(kind, base_seed, 15)
        assert all(rec["pass"] for rec in records)


def test_case_generators_are_deterministic_and_sized():
    a1, da1, r1 = random_diagonalizable_case(123)
    a2, da2, r2 = random_diagonalizable_case(123)
    assert np.array_equal(a1, a2) and np.array_equal(da1, da2) and r1 == r2
    assert 3 <= a1.shape[0] <= 10
    assert 1 <= r1 <= 4
    ac, dac, rc = random_clustered_case(9)
    assert 3 <= ac.shape[0] <= 8
    # kept eigenvalues cluster near 1.5, the rest stay in the small disk
    lam = np.linalg.eigvals(ac)
    near = np.abs(lam - 1.5) <= 0.45
    assert np.count_nonzero(near) == rc


def test_sampler_rules_out_the_cases_the_suites_do_not_filter():
    # the Bauer-Fike facts in random_diagonalizable_case's docstring, which
    # let the suites run every drawn case without a filter or a rescale
    for seed in range(500):
        a, da, r = random_diagonalizable_case(seed)
        ctx = build_oracle_context(a, da, TopKMagnitude(r), NearestAssignment())
        delta1 = gap_delta1(ctx.part.lambda1, ctx.part.lambda2)
        diffs = ctx.part_tilde.lambda1[np.newaxis, :] - ctx.part.lambda2[:, np.newaxis]
        delta_lambda = np.min(np.abs(diffs))
        assert delta_lambda >= 0.99 * delta1
        assert delta_lambda >= 10.0 * np.linalg.norm(da, 2)
        # |sigma_r| of the characteristic-polynomial row form, for every row
        assert np.min(np.abs(np.prod(diffs, axis=1))) >= (0.99 * SAMPLE_MIN_GAP) ** r
        # the conditioning that scales the Hadamard identity's threshold
        assert ctx.kprod <= 1e6


def test_run_suite_dispatch():
    assert set(SUITES) == {"lemma32", "lemma33", "contour", "dominance", "scaling"}
    records = run_suite("dominance", seed=5, cases=10)
    assert len(records) == 10
    assert all(rec["pass"] for rec in records)
    with pytest.raises(SpecViolation):
        run_suite("nope", 42)


def test_dominance_records_match_the_public_entry_points():
    # the suite reads one analysis per case; new_bound and sin_theta_norm
    # recompute each quantity from scratch and must agree bit for bit
    for rec in run_dominance_suite(base_seed=31, cases=8):
        a, da, r = random_diagonalizable_case(rec["seed"])
        part = partition(eig(a), TopKMagnitude(r))
        part_t = match_partition(eig(a + da), part, NearestAssignment())
        # the sampler's dA already meets delta_lambda >= 10 ||dA||: no rescale
        assert gap_delta1(part_t.lambda1, part.lambda2) >= 10.0 * np.linalg.norm(da, 2)
        assert (rec["perj"], rec["dl"]) == new_bound(a, da, part, part_t)
        assert rec["measured"] == sin_theta_norm(part.qr_x1.q, part_t.qr_x1.q)


@pytest.mark.parametrize("base_seed", [42, 9])
def test_contour_residue_record_compares_against_the_cross_gram(base_seed):
    rec = {r["case_id"]: r for r in run_contour_suite(base_seed)}["residue-vs-hadamard"]
    # a second, independently rounded route: the residual is small but not 0
    assert 0.0 < rec["residual"] <= rec["threshold"]
    assert rec["pass"]


def test_dominance_case_budget_of_ten_svds(monkeypatch):
    # np.linalg.norm(., 2) reaches LAPACK through numpy's internal svd
    inner = importlib.import_module("numpy.linalg._linalg" if hasattr(np.linalg, "_linalg")
                                    else "numpy.linalg.linalg")
    svd, calls = inner.svd, []

    def counted_svd(*args, **kwargs):
        calls.append(1)
        return svd(*args, **kwargs)

    monkeypatch.setattr(inner, "svd", counted_svd)
    monkeypatch.setattr(np.linalg, "svd", counted_svd)
    decompositions = []
    monkeypatch.setattr(bounds, "eig", lambda a: decompositions.append(eig(a)) or
                        decompositions[-1])
    cases = 20
    run_dominance_suite(0, cases)
    assert len(calls) <= 10 * cases
    # eig(A) measures ||A||_2 for the product bound; eig(A + dA) measures nothing
    for ed, ed_tilde in zip(decompositions[::2], decompositions[1::2]):
        assert "a_norm" in ed.__dict__
        assert "a_norm" not in ed_tilde.__dict__ and "kappa_x" not in ed_tilde.__dict__
