"""Acceptance suite: one test per criterion, each printing a PASS/FAIL line.

Run with ``pytest -v -s tests/test_acceptance.py`` to see the per-criterion
lines; every tolerance is pinned here, nothing is calibrated elsewhere.
"""

import numpy as np
import pytest

from splab.bounds import classical_bound, sep_frobenius
from splab.experiments import (
    Example11,
    gen_example,
    run_special_perturbation_suite,
    run_table1_sweep,
    run_tightness_sweep,
    run_v2_necessity,
)
from splab.linalg import eig
from splab.oracles import (
    Contour,
    build_oracle_context,
    contour_projector,
    residue_coupling_matrix,
)
from splab.partition import TopKMagnitude, partition
from splab.rng import SplitMix64
from splab.verify import (
    run_contour_suite,
    run_dominance_suite,
    run_identity_suite,
    run_scaling_suite,
)

EPS_GRID = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)


def report_line(number: int, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {number:02d} {'PASS' if ok else 'FAIL'} - {detail}")


@pytest.fixture(scope="module")
def table1(tmp_path_factory):
    # drive the real CLI so the criterion covers the sweep command end to end
    import json

    from splab.cli import main

    out = tmp_path_factory.mktemp("table1") / "table1.json"
    code = main(["sweep", "table1", "--eps-list", ",".join(f"{e:g}" for e in EPS_GRID),
                 "--norm", "1e-6", "--seed", "42", "--format", "json",
                 "--out", str(out)])
    assert code == 0
    obj = json.loads(out.read_text())
    rows = [{k: (float(v) if isinstance(v, str) and k != "seed" else v)
             for k, v in row.items()} for row in obj["rows"]]
    api = run_table1_sweep(EPS_GRID, 1e-6, 42)
    for cli_row, api_row in zip(rows, api.rows):
        assert cli_row["classical"] == api_row["classical"]
        assert cli_row["measured_sin"] == api_row["measured_sin"]
    return api


def test_criterion_01_table1_classical_row(table1):
    published = {1e-2: 5.00e-5, 1e-4: 4.08e-4, 1e-6: 4.00e-3, 1e-10: 0.67}
    by_eps = {row["param"]: row["classical"] for row in table1.rows}
    ok = all(abs(by_eps[eps] - ref) / ref <= 0.02 for eps, ref in published.items())
    # the 1e-8 entry must come out near the directly evaluated 4.2e-2 and be
    # flagged as diverging from the published 0.0042, not matched to it
    ok = ok and 0.035 <= by_eps[1e-8] <= 0.05
    ok = ok and any("1e-08" in note for note in table1.notes)
    report_line(1, ok, f"classical row {[f'{by_eps[e]:.3e}' for e in EPS_GRID]}, "
                       f"{len(table1.notes)} divergence note(s)")
    assert ok


def test_criterion_02_table1_true_distance_row(table1):
    measured = [row["measured_sin"] for row in table1.rows]
    ok = all(1e-7 <= m <= 1e-5 for m in measured)
    spread = max(measured) / min(measured)
    ok = ok and spread <= 10.0
    report_line(2, ok, f"measured range [{min(measured):.2e}, {max(measured):.2e}], "
                       f"spread x{spread:.2f}")
    assert ok


def test_criterion_03_dominance_300_cases():
    records = run_dominance_suite(42, 300)
    violations = [rec for rec in records if not rec["pass"]]
    ok = len(records) == 300 and not violations
    report_line(3, ok, f"{len(records)} cases, {len(violations)} violations")
    assert ok


def test_criterion_04_identity_suites():
    rec32 = run_identity_suite("lemma32", 42, 100)
    rec33 = run_identity_suite("lemma33", 42, 100)
    worst32 = max(rec["residual"] for rec in rec32)
    worst33 = max(rec["residual"] for rec in rec33)
    ok = (len(rec32) == len(rec33) == 100
          and all(rec["pass"] for rec in rec32 + rec33)
          and worst32 <= 1e-8 and worst33 <= 1e-8)
    report_line(4, ok, f"hadamard worst {worst32:.2e}, row-form worst {worst33:.2e}")
    assert ok


def test_criterion_05_gap_power_tightness():
    from splab.experiments import TightGeneral, gen_example
    from splab.oracles import brute_force_sin_theta

    details = []
    ok = True
    for r in (2, 3):
        res = run_tightness_sweep(r, [0.2, 0.1, 0.05], 0.01)
        summary = dict(res.summary)
        lo, hi = summary["ratio_leading_min"], summary["ratio_leading_max"]
        ok = ok and (1.0 / 3.0 <= lo <= hi <= 3.0)
        # confirm with the independent brute-force oracle at one grid point
        eps = 0.01 * 0.1 ** r
        a, facts = gen_example(TightGeneral(r=r, delta=0.1, eps=eps))
        oracle_ratio = (brute_force_sin_theta(a, facts.perturbation, facts.selector)
                        / facts.witness_sin_leading)
        ok = ok and 1.0 / 3.0 <= oracle_ratio <= 3.0
        details.append(f"r={r}: ratios [{lo:.2f}, {hi:.2f}], oracle {oracle_ratio:.2f}")
    report_line(5, ok, "; ".join(details))
    assert ok


def test_criterion_06_dual_basis_condition_necessity():
    rec = run_v2_necessity(0.05, 0.005, 1e-6)
    ok = rec["measured_le_bound"] and rec["measured_exceeds_reduced"]
    report_line(6, ok, f"measured {rec['measured_sin']:.3e} <= bound "
                       f"{rec['new_perj']:.3e}, > bound/k2(V2) "
                       f"{rec['bound_over_kappa_v2']:.3e}")
    assert ok


def test_criterion_07_special_perturbation_suite():
    rows = run_special_perturbation_suite(1e-4, 1e-6)
    zero_rows = [r for r in rows if r["zero_expected"]]
    coupled = [r for r in rows if not r["zero_expected"]]
    ok = (len(zero_rows) == 7 and len(coupled) == 2
          and all(r["measured_sin"] <= 1e-10 for r in zero_rows)
          and all(r["measured_sin"] <= 1e-5 for r in coupled))
    worst_zero = max(r["measured_sin"] for r in zero_rows)
    worst_coupled = max(r["measured_sin"] for r in coupled)
    report_line(7, ok, f"zero-effect worst {worst_zero:.1e}, "
                       f"coupled worst {worst_coupled:.1e}")
    assert ok


def test_criterion_08_contour_machinery():
    a, _ = gen_example(Example11(1e-4))
    ed = eig(a)
    part = partition(ed, TopKMagnitude(2))
    ref = part.x1 @ ed.v[:, list(part.idx1)].conj().T
    err256 = float(np.linalg.norm(
        contour_projector(a, ed, Contour(center=1.0, radius=0.3, nodes=256)) - ref, 2))
    suite = {rec["case_id"]: rec for rec in run_contour_suite(42)}
    contraction_ok = all(suite[name]["pass"] for name in (
        "example11-contract-16-32", "example11-contract-32-64",
        "analytic-contract-64-128", "analytic-contract-128-256"))
    ctx = build_oracle_context(a, np.full((3, 3), 1e-7, dtype=np.complex128),
                               TopKMagnitude(2))
    hadamard = ctx.gap_recip * (ctx.part.v2.conj().T @ ctx.da @ ctx.part_tilde.x1)
    residue_err = float(np.linalg.norm(residue_coupling_matrix(ctx) - hadamard, 2))
    ok = err256 <= 1e-8 and contraction_ok and residue_err <= 1e-12
    report_line(8, ok, f"projector error at 256 nodes {err256:.1e}, contraction "
                       f"{'>=10x per doubling' if contraction_ok else 'BROKEN'}, "
                       f"residue-vs-hadamard {residue_err:.1e}")
    assert ok


def test_criterion_09_scale_invariance():
    records = run_scaling_suite(42)
    worst = max(rec["residual"] for rec in records)
    ok = all(rec["pass"] for rec in records) and worst <= 1e-10
    report_line(9, ok, f"worst relative drift {worst:.2e} over t in {{1e-3, 1e3}}")
    assert ok


def test_criterion_10_sep_sanity_and_davis_kahan_reduction():
    worst = 0.0
    for k in range(50):
        g = SplitMix64(60000 + k)
        n1, n2 = g.integer(1, 4), g.integer(1, 4)
        d1 = np.array([complex(2 * g.uniform() - 1, 2 * g.uniform() - 1)
                       for _ in range(n1)])
        d2 = np.array([complex(2 * g.uniform() - 1, 2 * g.uniform() - 1)
                       for _ in range(n2)])
        gap = min(abs(x - y) for x in d1 for y in d2)
        worst = max(worst, abs(sep_frobenius(np.diag(d1), np.diag(d2)) - gap))
    part = partition(eig(np.diag([2.0, 1.0, -1.0]).astype(np.complex128)),
                     TopKMagnitude(1))
    da_spec, delta0 = 1e-3, 1.0
    value, valid = classical_bound(part, da_spec, delta0)
    dk_exact = value == 2.0 * da_spec / (delta0 - 2.0 * da_spec) and valid
    ok = worst <= 1e-12 and dk_exact
    report_line(10, ok, f"sep-vs-gap worst {worst:.2e} over 50 diagonal pairs, "
                        f"unit-condition reduction exact: {dk_exact}")
    assert ok
