import dataclasses
import json
import math

import numpy as np
import pytest

from splab.bounds import full_report
from splab.errors import InvalidMatrix
from splab.experiments import Example11, gen_example, gen_gaussian_perturbation, run_table1_sweep
from splab.io import (
    eig_to_obj,
    fmt17,
    load_matrix,
    matrix_to_obj,
    obj_to_matrix,
    parse_csv_matrix,
    records_to_json,
    report_to_obj,
    save_matrix,
    sweep_to_csv,
    sweep_to_json,
    write_document,
)
from splab.linalg import eig
from splab.partition import TopKMagnitude
from splab.rng import SplitMix64
from splab.verify import run_suite


def test_fmt17_round_trips_binary64():
    g = SplitMix64(5)
    values = [g.normal() * 10.0 ** (g.integer(-120, 120)) for _ in range(500)]
    values += [0.0, 1.0, -1.5, 2.0 ** -1074, 1.7976931348623157e308]
    for v in values:
        assert float(fmt17(v)) == v
    assert fmt17(math.inf) == "inf"
    assert fmt17(-math.inf) == "-inf"


def test_matrix_json_round_trip(tmp_path):
    m = SplitMix64(8).complex_normals(4, 3)
    m[0, 0] = complex(-0.0, -0.0)
    path = tmp_path / "m.json"
    save_matrix(path, m)
    back = load_matrix(path)
    assert np.array_equal(back, m)
    assert np.signbit(back[0, 0].real) and np.signbit(back[0, 0].imag)


def test_matrix_obj_entries_are_the_entries_bits():
    m = SplitMix64(9).complex_normals(3, 4)
    m[0, 0] = complex(-0.0, 5e-324)
    m[1, 2] = complex(1e308, -0.0)
    m[2, 3] = complex(-5e-324, -1e308)
    def bits(pairs):  # -0.0 and 0.0 differ here
        return np.array(pairs, dtype=np.float64).view(np.uint64).tolist()

    for mat in (m, m.T):  # m.T is not contiguous
        new = matrix_to_obj(mat)["entries"]
        assert bits(new) == bits([[float(z.real), float(z.imag)] for z in mat.reshape(-1)])
        assert all(type(x) is float for pair in new for x in pair)
    ed = eig(np.diag([2.0, -0.0, -1.0]).astype(np.complex128))
    assert bits(eig_to_obj(ed)["lambda"]) == bits([[float(z.real), float(z.imag)]
                                                  for z in ed.lam])


def test_matrix_obj_validation():
    with pytest.raises(InvalidMatrix):
        obj_to_matrix({"rows": 2, "cols": 2, "entries": [[1, 0]]})
    with pytest.raises(InvalidMatrix):
        obj_to_matrix({"rows": 2, "cols": 2})
    with pytest.raises(InvalidMatrix):
        obj_to_matrix({"rows": 1, "cols": 1, "entries": [["x", 0]]})


@pytest.mark.parametrize("rows, cols", [(1.9, 1), (1, True), (1.0, 1), ("1", 1),
                                        (None, 1), (1, [1])],
                         ids=["float", "bool", "integral-float", "string", "null", "list"])
def test_matrix_obj_shape_must_be_json_integers(rows, cols):
    with pytest.raises(InvalidMatrix, match="rows and cols must be integers"):
        obj_to_matrix({"rows": rows, "cols": cols, "entries": [[1, 0]]})


@pytest.mark.parametrize("entries, found", [
    ([[True, False]], "true/false"),
    ([["1.5", "0"]], "a string"),
    ([[None, 0]], "null"),
    ([{"re": 1, "im": 0}], "an object"),
    ([[[1, 0]]], "an array"),
    ([1, 0], "a number"),
    ("10", "a string"),
], ids=["bool", "string", "null", "object", "nested", "flat", "string-entries"])
def test_matrix_obj_entries_must_be_json_number_pairs(entries, found):
    # float64 conversion loaded true as 1 and "1.5" as 1.5, and called null non-finite
    with pytest.raises(InvalidMatrix,
                       match=rf"entries are not \[re, im\] number pairs: found {found}$"):
        obj_to_matrix({"rows": 1, "cols": 1, "entries": entries})


def test_matrix_obj_json_integers_and_floats_load_bit_for_bit():
    m = obj_to_matrix({"rows": 1, "cols": 3, "entries": [[1, 0], [2.5, -0.0], [-3, 1e-300]]})
    expected = np.array([[1, complex(2.5, -0.0), complex(-3, 1e-300)]])
    assert m.tobytes() == expected.tobytes()


def test_load_matrix_peak_memory_at_n120(tmp_path):
    import tracemalloc
    path = tmp_path / "a.json"
    save_matrix(path, SplitMix64(120).complex_normals(120, 120))
    load_matrix(path)  # first call: lazy imports and caches
    tracemalloc.start()
    try:
        m = load_matrix(path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert m.shape == (120, 120)
    # the file text (0.62 MB) is freed before the parsed lists are converted
    assert peak < 3.0e6


def test_write_document_streams_the_dominance_records(tmp_path):
    import tracemalloc
    doc = records_to_json(run_suite("dominance", 42, None))
    path = tmp_path / "dominance.json"
    write_document(doc, path)  # first call: lazy imports and caches
    tracemalloc.start()
    try:
        write_document(doc, path)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert path.read_text() == json.dumps(doc, indent=2) + "\n"
    # the JSON text (74 kB) is written chunk by chunk, never held whole
    assert peak < 5 * path.stat().st_size


def test_load_matrix_ignores_a_utf8_byte_order_mark(tmp_path):
    texts = {"m.json": '{"rows": 1, "cols": 2, "entries": [[1, 0], [0, -2.5]]}\n',
             "m.csv": "1, -2.5i\n"}
    for name, text in texts.items():
        plain, bom = tmp_path / name, tmp_path / f"bom-{name}"
        plain.write_text(text, encoding="utf-8")
        bom.write_text(text, encoding="utf-8-sig")
        assert bom.read_bytes().startswith(b"\xef\xbb\xbf")
        assert np.array_equal(load_matrix(bom), load_matrix(plain))
        assert np.array_equal(load_matrix(plain), np.array([[1, -2.5j]]))


def test_csv_matrix_parsing():
    m = parse_csv_matrix("1+2i, 3\n-1i, 2.5-0.5i\n")
    expected = np.array([[1 + 2j, 3], [-1j, 2.5 - 0.5j]], dtype=np.complex128)
    assert np.allclose(m, expected)


def test_csv_matrix_error_names_row_and_column():
    with pytest.raises(InvalidMatrix) as info:
        parse_csv_matrix("1, 2\n3, oops\n")
    assert "row 2" in str(info.value)
    assert "column 2" in str(info.value)


def test_csv_ragged_rows_rejected():
    with pytest.raises(InvalidMatrix):
        parse_csv_matrix("1, 2\n3\n")


def test_load_matrix_csv_by_extension(tmp_path):
    path = tmp_path / "m.csv"
    path.write_text("1, 0\n0, 1\n")
    assert np.array_equal(load_matrix(path), np.eye(2, dtype=np.complex128))


def test_report_serialization_schema():
    a, _ = gen_example(Example11(1e-4))
    da = gen_gaussian_perturbation(3, 1e-6, 42)
    rep = full_report(a, da, TopKMagnitude(2))
    obj = report_to_obj(rep)
    expected_keys = [
        "delta0", "delta1", "delta_lambda", "t0_star", "a", "kappa_X1",
        "kappa_V2", "dA_spec", "dA_frob", "classical_value", "classical_valid",
        "new_value_perj", "new_value_dl", "sep_frob", "sep_lower",
        "stewart_condition_ok", "measured_sin", "gap_ok", "dominance_ok",
        "match_strategy",
    ]
    assert list(obj) == expected_keys
    assert isinstance(obj["classical_valid"], bool)
    assert float(obj["measured_sin"]) == rep.measured_sin
    text = json.dumps(obj)
    assert json.loads(text) == obj


REPORT_CASES = {
    "example11": (gen_example(Example11(1e-4))[0], gen_gaussian_perturbation(3, 1e-6, 42), 2),
    "zero-perturbation": (gen_example(Example11(1e-4))[0], np.zeros((3, 3)), 2),
    "gap-violated": (np.diag([2.0, 1.0]), np.diag([-1.0, 0.0]), 1),
    "one-point-spectrum": (np.eye(2), np.zeros((2, 2)), 1),
}


@pytest.mark.parametrize("case", sorted(REPORT_CASES))
def test_report_fields_hold_exactly_their_declared_kinds(case):
    # report_to_obj picks the format from each value's type, so a float field
    # that held an int would be written as a bare JSON number, not a string
    a, da, k = REPORT_CASES[case]
    rep = full_report(a, da, TopKMagnitude(k))
    kinds = {"float": float, "complex": complex, "bool": bool, "str": str}
    for f in dataclasses.fields(rep):
        assert type(getattr(rep, f.name)) is kinds[f.type], f.name
    obj = report_to_obj(rep)
    assert all(isinstance(v, (str, bool, list)) for v in obj.values())
    assert obj["t0_star"] == [fmt17(rep.t0_star.real), fmt17(rep.t0_star.imag)]


def test_sweep_serialization_golden_shape():
    res = run_table1_sweep([1e-2], 1e-6, 42)
    csv_text = sweep_to_csv(res)
    lines = csv_text.strip().splitlines()
    assert lines[0] == ("param,measured_sin,classical,new_perj,new_dl,"
                        "delta0,delta1,delta_lambda,kappa_X1,kappa_V2,seed")
    assert len(lines) == 2
    cells = lines[1].split(",")
    assert len(cells) == 11
    assert cells[-1] == "42"
    obj = sweep_to_json(res)
    assert obj["columns"][0] == "param"
    assert len(obj["rows"]) == 1
