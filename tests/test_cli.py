import json
import math
import os
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest

import splab
from splab.cli import main
from splab.experiments import (
    Example11,
    TightGeneral,
    V2NecessityN,
    gen_example,
)
from splab.io import load_matrix, save_matrix
from splab.rng import SplitMix64


# the child processes import the same sources as this test run
SRC = str(Path(splab.__file__).resolve().parents[1])


def run_cli(*args):
    return main(list(args))


def test_eig_round_trip(tmp_path):
    a_path = tmp_path / "a.json"
    out = tmp_path / "eig.json"
    assert run_cli("example", "example11", "--eps", "1e-4", "--out", str(a_path)) == 0
    assert run_cli("eig", "--input", str(a_path), "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    lam = [complex(re, im) for re, im in obj["lambda"]]
    assert lam[0] == pytest.approx(1.01, abs=1e-12)
    assert lam[2] == pytest.approx(0.5, abs=1e-12)
    from splab.io import obj_to_matrix
    from splab.linalg import eig
    x_back = obj_to_matrix(obj["X"])
    direct = eig(load_matrix(a_path)).x
    assert np.max(np.abs(x_back - direct)) <= 1e-15


def test_eig_parse_error_exit_code(tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1, 2\n3, oops\n")
    assert run_cli("eig", "--input", str(bad)) == 1


def test_report_success_and_flags(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    rep_path = tmp_path / "rep.json"
    run_cli("example", "example11", "--eps", "1e-4", "--out", str(a_path))
    code = run_cli("report", "--input", str(a_path), "--perturb", "gaussian:1e-6",
                   "--select", "topk:2", "--seed", "42", "--out", str(rep_path))
    assert code == 0
    obj = json.loads(rep_path.read_text())
    assert obj["classical_valid"] is True
    assert float(obj["measured_sin"]) < 1e-5
    assert obj["match_strategy"] == "same-selector"


def test_report_zero_perturbation(tmp_path):
    a_path = tmp_path / "a.json"
    rep_path = tmp_path / "rep.json"
    run_cli("example", "example11", "--eps", "1e-4", "--out", str(a_path))
    save_matrix(tmp_path / "zero.json", np.zeros((3, 3), dtype=np.complex128))
    code = run_cli("report", "--input", str(a_path), "--perturb",
                   f"file:{tmp_path / 'zero.json'}", "--select", "topk:2",
                   "--out", str(rep_path))
    assert code == 0
    obj = json.loads(rep_path.read_text())
    assert float(obj["measured_sin"]) <= 1e-12
    assert float(obj["new_value_perj"]) == 0.0


def test_report_gap_violation_exits_2_but_writes(tmp_path):
    a_path = tmp_path / "a.json"
    da_path = tmp_path / "da.json"
    rep_path = tmp_path / "rep.json"
    save_matrix(a_path, np.diag([2.0, 1.0]).astype(np.complex128))
    save_matrix(da_path, np.diag([-1.0, 0.0]).astype(np.complex128))
    code = run_cli("report", "--input", str(a_path), "--perturb",
                   f"file:{da_path}", "--select", "topk:1", "--out", str(rep_path))
    assert code == 2
    obj = json.loads(rep_path.read_text())
    assert obj["gap_ok"] is False
    assert obj["new_value_perj"] == "inf"
    assert obj["delta_lambda"] == "0"


def test_numerical_failure_exits_3(tmp_path):
    # a defective (Jordan-block) input cannot be eigendecomposed to tolerance
    jordan = tmp_path / "jordan.json"
    save_matrix(jordan, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128))
    assert run_cli("eig", "--input", str(jordan)) == 3


NOT_DIAGONALIZABLE = {
    "nilpotent": ([[0.0, 1.0], [0.0, 0.0]], "9.979e+291"),
    "jordan3": ([[1.0, 1.0, 0.0], [0.0, 1.0, 0.0], [0.0, 0.0, 0.5]], "9.007e+15"),
}


@pytest.mark.parametrize("case", sorted(NOT_DIAGONALIZABLE))
def test_not_diagonalizable_exits_3_with_one_line_and_no_warning(tmp_path, capsys, case):
    # the cheap kappa bound overflows on these inputs; no numpy warning may
    # reach stderr beside the one error line
    matrix, kappa = NOT_DIAGONALIZABLE[case]
    path = tmp_path / "a.json"
    save_matrix(path, np.array(matrix, dtype=np.complex128))
    line = (f"splab: NotDiagonalizable: eig: kappa2(X) = {kappa} exceeds cap 1.0e+13\n")
    for argv in (("eig", "--input", str(path)),
                 ("report", "--input", str(path), "--perturb", "gaussian:1e-6",
                  "--select", "topk:1")):
        capsys.readouterr()
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli(*argv) == 3
        captured = capsys.readouterr()
        assert captured.err == line and captured.out == ""


def test_report_on_entries_near_1e200_gives_a_report(tmp_path, capsys):
    # sep ~ 7e199: its Ritz value 1/sep^2 underflowed to 0 before the blocks
    # were rescaled, and the report ended in a ZeroDivisionError traceback
    path, out = tmp_path / "a.json", tmp_path / "report.json"
    save_matrix(path, np.array([[1e200, 1e200], [0.0, 3e199]], dtype=np.complex128))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("report", "--input", str(path), "--perturb", "gaussian:1e-6",
                       "--select", "topk:1", "--out", str(out)) == 0
    assert capsys.readouterr().err == ""
    report = json.loads(out.read_text())
    assert float(report["sep_frob"]) == pytest.approx(7e199, rel=1e-14)
    assert float(report["delta0"]) == pytest.approx(7e199, rel=1e-14)


def test_report_on_a_perturbation_near_1e_minus_200_keeps_its_norm(tmp_path, capsys):
    # ||dA||_F's sum of squares underflowed to 0, and so did the product bound
    path = tmp_path / "a.json"
    assert run_cli("example", "example11", "--eps", "1e-2", "--out", str(path)) == 0
    reports = {}
    for norm in ("1e-6", "1e-200"):
        out = tmp_path / f"{norm}.json"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert run_cli("report", "--input", str(path), "--perturb", f"gaussian:{norm}",
                           "--select", "topk:2", "--out", str(out)) in (0, 2)
        reports[norm] = json.loads(out.read_text())
    assert capsys.readouterr().err == ""
    small, tiny = reports["1e-6"], reports["1e-200"]
    assert float(tiny["dA_frob"]) == pytest.approx(1e-194 * float(small["dA_frob"]),
                                                   rel=1e-15, abs=0)
    assert float(tiny["new_value_perj"]) == pytest.approx(
        1e-194 * float(small["new_value_perj"]), rel=1e-5, abs=0)


def test_report_with_an_overflowing_product_bound_prints_inf(tmp_path, capsys):
    # (1 + a/delta_lambda)^r overflows: a float power raised OverflowError
    path, out = tmp_path / "a.json", tmp_path / "report.json"
    assert run_cli("example", "example11", "--eps", "1e-2", "--out", str(path)) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert run_cli("report", "--input", str(path), "--perturb", "unit:1,1,1e160",
                       "--select", "topk:2", "--out", str(out)) == 2
    report = json.loads(out.read_text())
    assert report["new_value_dl"] == "inf"
    assert float(report["new_value_perj"]) == pytest.approx(4e160, rel=1e-14)


def test_report_on_a_spectrum_wider_than_the_largest_float(tmp_path):
    # the spectrum's width, 2e308, overflowed gap_delta0's bounding box and the
    # report ended in an `arange: cannot compute length` traceback; on the 2x2
    # matrix a and the gaps overflow, and a / gaps printed the product bound as nan
    cases = [((1e308, -1e308, 5e307j, -5e307j), "topk:2", "same", 5e307),
             ((1e308, -1e308), "topk:1", "same", math.inf),
             ((1e308, -1e308), "topk:1", "nearest", math.inf)]
    for diagonal, select, match, delta0 in cases:
        path = tmp_path / "a.json"
        save_matrix(path, np.diag(diagonal))
        done = subprocess.run(
            [sys.executable, "-W", "error", "-m", "splab.cli", "report", "--input", str(path),
             "--perturb", "gaussian:1e-6", "--select", select, "--match", match],
            env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=False)
        assert done.returncode in (0, 1, 2, 3)
        assert "Traceback" not in done.stderr
        if done.returncode in (0, 2):
            assert done.stderr == ""
            report = json.loads(done.stdout)
            assert "nan" not in report.values()
            assert float(report["delta0"]) == pytest.approx(delta0, rel=1e-7)
        else:
            assert done.stderr.startswith("splab: ") and done.stderr.count("\n") == 1


def test_report_names_an_a_plus_da_that_overflows(tmp_path):
    # A is valid, but A+dA is not: a numerical failure, not an input error
    path = tmp_path / "a.json"
    save_matrix(path, np.diag([1e308, -1e308]))
    done = subprocess.run(
        [sys.executable, "-W", "error", "-m", "splab.cli", "report", "--input", str(path),
         "--perturb", "unit:1,1,1e308", "--select", "topk:1"],
        env=dict(os.environ, PYTHONPATH=SRC), capture_output=True, text=True, check=False)
    assert (done.returncode, done.stdout) == (3, "")
    assert done.stderr == "splab: OverflowError: A+dA: an entry overflows the largest float\n"


def test_cli_calls_do_not_import_scipy_optimize(tmp_path):
    # scipy.optimize costs about 0.2 s of start-up and scipy.spatial 0.3-0.4 s:
    # no general-path report with nearest matching, contour suite or table1
    # sweep may import either
    path = tmp_path / "a.json"
    save_matrix(path, SplitMix64(8).complex_normals(8, 8) / 4.0)
    script = f"""
import sys
from splab.cli import main
codes = [main(argv) for argv in (
    ["report", "--input", {str(path)!r}, "--perturb", "gaussian:1e-6", "--select", "topk:2",
     "--match", "nearest", "--out", {str(tmp_path / "report.json")!r}],
    ["verify", "contour", "--out", {str(tmp_path / "contour.json")!r}],
    ["sweep", "table1", "--out", {str(tmp_path / "table1.csv")!r}],
)]
print(codes[0] in (0, 2), codes[1:], "scipy.optimize" in sys.modules,
      "scipy.spatial" in sys.modules)
"""
    done = subprocess.run([sys.executable, "-c", script],
                          env=dict(os.environ, PYTHONPATH=SRC),
                          capture_output=True, text=True, check=False)
    assert done.returncode == 0, done.stderr
    assert done.stdout == "True [0, 0] False False\n"
    report = json.loads((tmp_path / "report.json").read_text())
    assert report["match_strategy"] == "nearest-assignment"


EXAMPLE_FLAGS = {
    "example11": (("--eps", "1e-4"),),
    "tightgeneral": (("--r", "3"), ("--delta", "0.1"), ("--eps", "1e-6")),
    "v2necessityn": (("--n", "6"), ("--delta", "0.05"), ("--delta1", "0.005"),
                     ("--eps", "1e-6")),
}
EXAMPLE_SPECS = {
    "example11": Example11(eps=1e-4),
    "tightgeneral": TightGeneral(r=3, delta=0.1, eps=1e-6),
    "v2necessityn": V2NecessityN(n=6, delta=0.05, delta1=0.005, eps=1e-6),
}


@pytest.mark.parametrize("family", sorted(EXAMPLE_FLAGS))
def test_example_writes_each_family(tmp_path, family):
    flags = [tok for pair in EXAMPLE_FLAGS[family] for tok in pair]
    a_path, da_path = tmp_path / "a.json", tmp_path / "da.json"
    code = run_cli("example", family.upper(), *flags, "--out", str(a_path),
                   *(() if family == "example11" else ("--perturb-out", str(da_path))))
    assert code == 0
    a, facts = gen_example(EXAMPLE_SPECS[family])
    assert np.array_equal(load_matrix(a_path), a)
    if family != "example11":
        assert np.array_equal(load_matrix(da_path), facts.perturbation)


@pytest.mark.parametrize("family", sorted(EXAMPLE_FLAGS))
def test_example_names_the_first_missing_flag(tmp_path, capsys, family):
    pairs = EXAMPLE_FLAGS[family]
    out = ("--out", str(tmp_path / "x.json"))
    capsys.readouterr()
    assert run_cli("example", family, *out) == 1
    assert capsys.readouterr().err == f"splab: example family requires {pairs[0][0]}\n"
    for k, (missing, _) in enumerate(pairs):
        given = [tok for j, pair in enumerate(pairs) if j != k for tok in pair]
        assert run_cli("example", family, *given, *out) == 1
        assert capsys.readouterr().err == f"splab: example family requires {missing}\n"
    assert not (tmp_path / "x.json").exists()


def test_example_and_verify_reject_unknown_names(tmp_path, capsys):
    capsys.readouterr()
    assert run_cli("example", "nosuch", "--eps", "1e-4",
                   "--out", str(tmp_path / "x.json")) == 1
    assert capsys.readouterr().err == "splab: unknown example family 'nosuch'\n"
    assert run_cli("verify", "nosuchsuite") == 1
    assert capsys.readouterr().err == (
        "splab: unknown suite 'nosuchsuite'; choose from "
        "['contour', 'dominance', 'lemma32', 'lemma33', 'scaling']\n")


def test_usage_errors_exit_1(tmp_path, capsys):
    assert run_cli("nosuchcommand") == 1
    assert run_cli("verify", "nosuchsuite") == 1
    a_path = tmp_path / "a.json"
    run_cli("example", "example11", "--eps", "1e-4", "--out", str(a_path))
    assert run_cli("report", "--input", str(a_path), "--perturb", "wat:1",
                   "--select", "topk:2") == 1
    assert run_cli("report", "--input", str(a_path), "--perturb", "gaussian:1e-6",
                   "--select", "bogus") == 1
    assert run_cli("report", "--input", str(a_path), "--perturb", "gaussian:inf",
                   "--select", "topk:2") == 1
    assert run_cli("example", "example11", "--eps", "2.0",
                   "--out", str(tmp_path / "x.json")) == 1
    assert run_cli("eig", "--input", str(tmp_path / "missing.json")) == 1
    assert run_cli("sweep", "tightness", "--delta-list", "") == 1
    assert run_cli("sweep", "table1", "--eps-list", "") == 1
    assert run_cli("sweep", "table1", "--eps-list", "1e-2,abc") == 1
    assert run_cli("sweep", "table1", "--norm", "inf") == 1
    assert run_cli("verify", "lemma32", "--cases", "-3") == 1
    assert run_cli("verify", "lemma32", "--cases", "0") == 1
    # the fixed-list suites take no case count
    for suite in ("contour", "scaling"):
        capsys.readouterr()
        out = tmp_path / f"{suite}.json"
        assert run_cli("verify", suite, "--cases", "50", "--out", str(out)) == 1
        assert capsys.readouterr().err == (
            f"splab: verify {suite} runs a fixed case list; --cases does not apply\n")
        assert not out.exists()
    # the JSON-only sweeps refuse an explicit --format csv
    for family in ("special", "v2necessity"):
        capsys.readouterr()
        assert run_cli("sweep", family, "--format", "csv",
                       "--out", str(tmp_path / f"{family}.csv")) == 1
        assert capsys.readouterr().err == (
            f"splab: sweep {family} writes JSON only; --format csv does not apply\n")
        assert not (tmp_path / f"{family}.csv").exists()
    # a selector that leaves one side of the split empty is an input fault
    one = tmp_path / "one.json"
    save_matrix(one, np.array([[2.0]], dtype=np.complex128))
    capsys.readouterr()
    assert run_cli("report", "--input", str(one), "--perturb", "unit:1,1,1e-6",
                   "--select", "topk:1") == 1
    assert capsys.readouterr().err == (
        "splab: a 1x1 matrix has no split: each side needs an eigenvalue\n")
    three = tmp_path / "three.json"
    save_matrix(three, np.diag([3.0, 2.0, 1.0]).astype(np.complex128))
    assert run_cli("report", "--input", str(three), "--perturb", "unit:1,1,1e-6",
                   "--select", "topk:3") == 1
    # so is a disk selector that the input puts an eigenvalue on the boundary of
    half = tmp_path / "half.json"
    save_matrix(half, np.diag([1.0, 0.5, 0.2]).astype(np.complex128))
    capsys.readouterr()
    assert run_cli("report", "--input", str(half), "--perturb", "unit:1,1,1e-6",
                   "--select", "disk:0+0i:0.5:inside") == 1
    assert capsys.readouterr().err == (
        "splab: disk: eigenvalue index 1 within 5.0e-10 of the boundary\n")
    # a centre or radius that is not finite is named as such
    for sel, err in (("disk:0+0i:nan:inside", "centre 0j and radius nan"),
                     ("disk:nan+0i:1:inside", "centre (nan+0j) and radius 1.0")):
        assert run_cli("report", "--input", str(three), "--perturb", "unit:1,1,1e-6",
                       "--select", sel) == 1
        assert capsys.readouterr().err == f"splab: disk: {err} must be finite\n"


TWO_BY_THREE = '{"rows": 2, "cols": 3, "entries": [%s]}' % ", ".join(["[1, 0]"] * 6)
MALFORMED_INPUTS = {
    "negative-shape": '{"rows": -1, "cols": -1, "entries": [[1, 0]]}',
    "non-integer-shape": '{"rows": 1.9, "cols": true, "entries": [[1, 0]]}',
    "object-entry": '{"rows": 1, "cols": 1, "entries": [{"re": 1, "im": 0}]}',
    "three-element-entry": '{"rows": 1, "cols": 1, "entries": [[1, 0, 0]]}',
    "zero-by-zero": '{"rows": 0, "cols": 0, "entries": []}',
    "boolean-entries": '{"rows": 1, "cols": 1, "entries": [[true, false]]}',
    "string-entries": '{"rows": 1, "cols": 1, "entries": [["1.5", "0"]]}',
    "null-entry": '{"rows": 1, "cols": 1, "entries": [[null, 0]]}',
    "undecodable-csv": b"\xff\xfe1,2\n3,4\n",
    "directory-input": None,
    "directory-perturbation": None,
    "non-square-input": TWO_BY_THREE,
    "non-square-perturbation": TWO_BY_THREE,
}


@pytest.mark.parametrize("case", sorted(MALFORMED_INPUTS))
def test_malformed_input_exits_1_with_one_line(tmp_path, capsys, case):
    good = tmp_path / "good.json"
    save_matrix(good, np.diag([2.0, 1.0]).astype(np.complex128))
    content = MALFORMED_INPUTS[case]
    if content is None:
        bad = tmp_path / "adir"
        bad.mkdir()
    else:
        bad = tmp_path / ("bad.csv" if isinstance(content, bytes) else "bad.json")
        bad.write_bytes(content if isinstance(content, bytes) else content.encode())
    if case.endswith("-perturbation"):
        argv = ("report", "--input", str(good), "--perturb", f"file:{bad}",
                "--select", "topk:1")
    else:
        argv = ("eig", "--input", str(bad))
    capsys.readouterr()
    assert run_cli(*argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("splab: ") and err.count("\n") == 1, err


def test_eig_reads_json_with_a_byte_order_mark(tmp_path):
    plain, bom = tmp_path / "plain.json", tmp_path / "bom.json"
    save_matrix(plain, np.diag([2.0, 1.0]).astype(np.complex128))
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outs = [tmp_path / "plain-eig.json", tmp_path / "bom-eig.json"]
    for src, out in zip((plain, bom), outs):
        assert run_cli("eig", "--input", str(src), "--out", str(out)) == 0
    assert outs[0].read_bytes() == outs[1].read_bytes()


def test_report_disk_count_change_points_to_nearest_match(tmp_path, capsys):
    a_path, da_path = tmp_path / "a.json", tmp_path / "da.json"
    save_matrix(a_path, np.diag([1.0, 0.9, 0.5]).astype(np.complex128))
    save_matrix(da_path, np.diag([0.0, -0.1, 0.0]).astype(np.complex128))
    args = ("report", "--input", str(a_path), "--perturb", f"file:{da_path}",
            "--select", "disk:1+0i:0.15:inside", "--out", str(tmp_path / "rep.json"))
    capsys.readouterr()
    assert run_cli(*args) == 3
    err = capsys.readouterr().err
    assert "match(A+dA)" in err and "(A+dA keeps 1, A keeps 2)" in err
    assert "--match nearest" in err
    assert run_cli(*args, "--match", "nearest") == 0


def test_report_unconverged_sep_is_nan_with_the_same_exit_code(tmp_path, monkeypatch):
    import splab.bounds
    a_path = tmp_path / "a.json"
    run_cli("example", "example11", "--eps", "1e-4", "--out", str(a_path))
    args = ("report", "--input", str(a_path), "--perturb", "gaussian:1e-6", "--select", "topk:2")
    assert run_cli(*args, "--out", str(tmp_path / "ok.json")) == 0
    ok = json.loads((tmp_path / "ok.json").read_text())
    monkeypatch.setattr(splab.bounds, "SEP_MAX_ITER", 1)
    assert run_cli(*args, "--out", str(tmp_path / "nan.json")) == 0
    rep = json.loads((tmp_path / "nan.json").read_text())
    assert ok["stewart_condition_ok"] is True
    assert rep["sep_frob"] == "nan" and rep["stewart_condition_ok"] is False
    rep.pop("sep_frob"), ok.pop("sep_frob")
    rep.pop("stewart_condition_ok"), ok.pop("stewart_condition_ok")
    assert rep == ok


def test_verify_suite_small(tmp_path):
    out = tmp_path / "v.json"
    assert run_cli("verify", "lemma32", "--cases", "10", "--seed", "42",
                   "--out", str(out)) == 0
    records = json.loads(out.read_text())
    assert len(records) == 10
    assert all(rec["pass"] for rec in records)
    assert {"case_id", "seed", "residual", "threshold", "pass"} <= set(records[0])


def test_verify_scaling_and_contour(tmp_path):
    assert run_cli("verify", "scaling", "--out", str(tmp_path / "s.json")) == 0
    assert run_cli("verify", "contour", "--out", str(tmp_path / "c.json")) == 0


def test_sweep_table1_deterministic_bytes(tmp_path):
    out1, out2 = tmp_path / "t1.csv", tmp_path / "t2.csv"
    args = ("sweep", "table1", "--eps-list", "1e-2,1e-6", "--norm", "1e-6",
            "--seed", "42")
    assert run_cli(*args, "--out", str(out1)) == 0
    assert run_cli(*args, "--out", str(out2)) == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_tightness_json_summary(tmp_path):
    out = tmp_path / "t.json"
    assert run_cli("sweep", "tightness", "--r", "2", "--format", "json",
                   "--out", str(out)) == 0
    obj = json.loads(out.read_text())
    assert "summary" in obj
    assert abs(float(obj["summary"]["slope_adjusted"]) + 2.0) <= 0.2


def test_sweep_special_and_v2necessity(tmp_path):
    assert run_cli("sweep", "special", "--eps", "1e-4", "--eps1", "1e-6",
                   "--out", str(tmp_path / "sp.json")) == 0
    assert run_cli("sweep", "v2necessity", "--delta", "0.05", "--delta1", "0.005",
                   "--eps", "1e-6", "--out", str(tmp_path / "v2.json")) == 0
    rec = json.loads((tmp_path / "v2.json").read_text())[0]
    assert rec["measured_le_bound"] is True
    assert rec["measured_exceeds_reduced"] is True


def _example11(tmp_path):
    path = tmp_path / "a.json"
    save_matrix(path, gen_example(Example11(1e-4))[0])
    return str(path)


WRITTEN_DOCUMENTS = {
    "eig": lambda a: ("eig", "--input", a),
    "report": lambda a: ("report", "--input", a, "--perturb", "gaussian:1e-6",
                         "--select", "topk:2"),
    "verify": lambda a: ("verify", "lemma33", "--cases", "5"),
    "sweep-table1-csv": lambda a: ("sweep", "table1", "--eps-list", "1e-2,1e-6"),
    "sweep-table1-json": lambda a: ("sweep", "table1", "--eps-list", "1e-2,1e-6",
                                    "--format", "json"),
    "sweep-v2necessity": lambda a: ("sweep", "v2necessity"),
    "sweep-special": lambda a: ("sweep", "special"),
}


@pytest.mark.parametrize("case", sorted(WRITTEN_DOCUMENTS))
def test_stdout_and_out_file_get_the_same_bytes(tmp_path, capsysbinary, case):
    argv = WRITTEN_DOCUMENTS[case](_example11(tmp_path))
    out = tmp_path / "doc.out"
    capsysbinary.readouterr()
    code = run_cli(*argv)
    to_stdout = capsysbinary.readouterr()
    assert run_cli(*argv, "--out", str(out)) == code
    to_file = capsysbinary.readouterr()
    assert to_stdout.out and to_file.out == b""
    assert out.read_bytes() == to_stdout.out
    assert to_file.err == to_stdout.err


def test_report_nearest_match_strategy(tmp_path):
    a_path = tmp_path / "a.json"
    rep_path = tmp_path / "rep.json"
    run_cli("example", "example11", "--eps", "1e-4", "--out", str(a_path))
    code = run_cli("report", "--input", str(a_path), "--perturb", "gaussian:1e-6",
                   "--select", "topk:2", "--match", "nearest", "--seed", "42",
                   "--out", str(rep_path))
    assert code == 0
    assert json.loads(rep_path.read_text())["match_strategy"] == "nearest-assignment"


def test_thresholds_cannot_be_overridden(tmp_path, capsys):
    jordan = tmp_path / "jordan.json"
    save_matrix(jordan, np.array([[1.0, 1.0], [0.0, 1.0]], dtype=np.complex128))
    a_path = tmp_path / "a.json"
    run_cli("example", "example11", "--eps", "1e-4", "--out", str(a_path))
    # the defective block exceeds the fixed kappa2(X) cap; Example11's
    # kappa2(X) ~ 100 stays below it
    assert run_cli("eig", "--input", str(jordan)) == 3
    assert run_cli("eig", "--input", str(a_path), "--out", str(tmp_path / "e.json")) == 0
    # values that would switch an input check off are not options at all
    commands = {"eig": ("eig", "--input", str(jordan)),
                "report": ("report", "--input", str(jordan), "--perturb", "gaussian:1e-6",
                           "--select", "topk:1"),
                "verify": ("verify", "contour")}
    for knob in ("kappa_cap=nan", "kappa_cap=inf", "disk_tol=-5", "nonsense=1"):
        for name, argv in commands.items():
            out = tmp_path / f"{name}.json"
            capsys.readouterr()
            assert run_cli(*argv, "--tol", knob, "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err.startswith("splab: ") and err.count("\n") == 1
            assert not out.exists()


def test_seed_env_var_is_ignored(tmp_path):
    # a run is reproduced by its command line alone: SPLAB_SEED must change no
    # output byte and break no command
    a_path = tmp_path / "a.json"
    run_cli("example", "example11", "--eps", "1e-4", "--out", str(a_path))
    report = [sys.executable, "-m", "splab.cli", "report", "--input", str(a_path),
              "--perturb", "gaussian:1e-6", "--select", "topk:2"]

    def run(argv, seed_env):
        env = dict(os.environ, SPLAB_SEED=seed_env, PYTHONPATH=SRC)
        return subprocess.run(argv, env=env, capture_output=True, check=False)

    from_env = run(report, "7")
    default = run(report + ["--seed", "42"], "7")
    assert from_env.returncode == default.returncode == 0
    assert from_env.stdout == default.stdout and from_env.stderr == default.stderr
    assert run(report + ["--seed", "7"], "7").stdout != default.stdout
    special = run([sys.executable, "-m", "splab.cli", "sweep", "special",
                   "--out", str(tmp_path / "sp.json")], "not-a-seed")
    assert special.returncode == 0, special.stderr


def test_seeds_outside_64_bits_exit_1(tmp_path, capsys):
    # SplitMix64 keeps 64 bits of a seed: -1 would replay 2**64 - 1, 2**64 replay 0
    a_path = tmp_path / "a.json"
    run_cli("example", "example11", "--eps", "1e-4", "--out", str(a_path))
    report = ("report", "--input", str(a_path), "--perturb", "gaussian:1e-6",
              "--select", "topk:2")
    last = str(2**64 - 1)
    for seed in ("-1", str(2**64)):
        for argv in (report, ("verify", "scaling"), ("sweep", "table1")):
            capsys.readouterr()
            out = tmp_path / "out.txt"
            assert run_cli(*argv, "--seed", seed, "--out", str(out)) == 1
            err = capsys.readouterr().err
            assert err == f"splab: argument --seed: {seed} lies outside [0, 2**64)\n"
            assert not out.exists()
    assert run_cli(*report, "--seed", last) == 0
    # verify runs case k on seed + k, so every case seed must fit as well
    assert run_cli("verify", "dominance", "--seed", last, "--cases", "1") == 0
    capsys.readouterr()
    for extra in (("--cases", "2"), ()):
        assert run_cli("verify", "dominance", "--seed", last, *extra) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"splab: --seed {last}: case ") and err.count("\n") == 1


def test_out_of_memory_exits_3_with_one_line(tmp_path, capsys, monkeypatch):
    # a 100000 x 100000 complex matrix needs 149 GiB; numpy's MemoryError
    # escaped main as a traceback
    import splab.experiments
    message = ("Unable to allocate 149. GiB for an array with shape (100000, 100000) "
               "and data type complex128")

    def out_of_memory(spec):
        raise MemoryError(message)

    monkeypatch.setattr(splab.experiments, "gen_example", out_of_memory)
    out = tmp_path / "x.json"
    capsys.readouterr()
    assert run_cli("example", "v2necessityn", "--n", "100000", "--delta", "0.1",
                   "--delta1", "0.01", "--eps", "1e-6", "--out", str(out)) == 3
    captured = capsys.readouterr()
    assert captured.err == f"splab: MemoryError: {message}\n" and captured.out == ""
    assert not out.exists()


def test_repeated_in_process_calls_behave_like_first_calls(tmp_path, capsys):
    a_path = tmp_path / "a.json"
    assert run_cli("example", "example11", "--eps", "1e-4", "--out", str(a_path)) == 0
    report = ("report", "--input", str(a_path), "--perturb", "gaussian:1e-6",
              "--select", "topk:2")
    outs = [tmp_path / f"call{k}.json" for k in range(7)]
    capsys.readouterr()
    codes = [
        run_cli(*report, "--match", "nearest", "--out", str(outs[1])),
        run_cli(*report, "--match", "bogus", "--out", str(outs[2])),
        run_cli(*report, "--out", str(outs[3])),
        run_cli(*report, "--seed", "42", "--out", str(outs[4])),
        run_cli("verify", "contour", "--out", str(outs[5])),
        run_cli(*report, "--match", "nearest", "--out", str(outs[6])),
    ]
    assert codes == [0, 1, 0, 0, 0, 0]
    err = capsys.readouterr().err.splitlines()
    assert err[0].startswith("splab: argument --match: invalid choice: 'bogus'")
    assert err[1:] == ["verify contour: all 7 cases passed"]
    assert not outs[2].exists()
    assert json.loads(outs[1].read_text())["match_strategy"] == "nearest-assignment"
    assert json.loads(outs[3].read_text())["match_strategy"] == "same-selector"
    assert outs[3].read_bytes() == outs[4].read_bytes()
    assert outs[1].read_bytes() == outs[6].read_bytes()


def test_report_bytes_do_not_depend_on_the_blas_thread_count(tmp_path):
    # a threaded BLAS splits its sums by the thread count: at two threads the
    # n=120 report's dA_spec read 1.0000000000000002e-06 instead of
    # 9.9999999999999974e-07, and every numeric field differed
    n = 120
    path = tmp_path / "a.json"
    save_matrix(path, SplitMix64(n).complex_normals(n, n) / np.sqrt(2 * n))
    argv = [sys.executable, "-m", "splab.cli", "report", "--input", str(path),
            "--perturb", "gaussian:1e-6", "--select", "topk:30"]
    base = {k: v for k, v in os.environ.items()
            if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")}
    runs = [subprocess.run(argv, env=dict(base, PYTHONPATH=SRC, OPENBLAS_NUM_THREADS=threads),
                           capture_output=True, check=False)
            for threads in ("1", "2")]
    assert [run.returncode for run in runs] == [0, 0], runs[1].stderr
    assert runs[0].stderr == runs[1].stderr == b""
    assert runs[0].stdout == runs[1].stdout
