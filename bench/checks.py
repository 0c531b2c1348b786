"""Output checks for the benchmark, run in the parent after the children end,
so they are outside every timed and traced window and do not add to the
child's peak RSS.

Each check returns a list of problems; any problem fails the operation.
Outputs are checked once, from the first measured round; every later round
(and the traced child) must reproduce the first round's output digest bit
for bit.

Report fields are checked two ways:

* Against an independent recomputation (``recompute``) that shares no code
  with splab's pipeline: scipy eigendecompositions, numpy norms, the
  product-bound formula, Bartels-Stewart solves for ``sep_frob``, and a
  numpy SplitMix64 / ``ndtri`` rebuild of the Gaussian perturbation.
  ``measured_sin`` is compared with ``splab.oracles.brute_force_sin_theta``,
  the program's deliberately independent oracle.  Tolerances (relative, absolute) are in
  ``RECOMPUTE_TOL``; each is at least 100 times the largest disagreement
  seen at the seed commit over 60 seeds of the small-reports inputs and 3
  seeds of the large-report sizes.
* For seed-independent outputs (tightness sweeps, v2necessity, the special
  suite, the tightgeneral report and the A-only columns of table1), against
  ``reference.json``, recorded at the seed commit with
  ``run.py --record-reference``.  Tolerances are in ``REFERENCE_RULES``:
  ``delta0`` may only rise and ``classical``/``sep_lower`` may only follow
  it (the exact disk-gap shortcut may improve the optimiser's lower bound),
  ``sep_frob`` must agree to 1e-8 relative (a Sylvester-based sep has to
  agree with the dense one to 1e-10), ``t0_star`` is a witness and is not
  compared, and the remaining numbers agree to 1e-8 relative
  (``measured_sin`` to 1e-6 relative or 1e-13 absolute).

Invariants checked on every report: ``delta0 <= delta1``, ``perj <= dl``,
``delta0`` equals the disk margin at ``t0_star`` and is no lower than an
independent coarse grid allows, and ``classical_value``, ``sep_lower``,
``stewart_condition_ok``, ``gap_ok`` and ``dominance_ok`` follow from the
reported numbers.
"""

from __future__ import annotations

import csv
import json
import math
from pathlib import Path

import numpy as np
import scipy.linalg
import scipy.special
from scipy.sparse.linalg import LinearOperator, eigsh

import workloads

REFERENCE_PATH = Path(__file__).with_name("reference.json")

RECOMPUTE_TOL = {
    "delta1": (1e-10, 1e-14),
    "delta_lambda": (1e-10, 1e-14),
    "dA_spec": (1e-12, 0.0),
    "dA_frob": (1e-12, 0.0),
    "a": (1e-12, 0.0),
    "kappa_X1": (1e-11, 0.0),
    "kappa_V2": (1e-11, 0.0),
    "new_value_perj": (1e-9, 0.0),
    "new_value_dl": (1e-9, 0.0),
    "measured_sin": (1e-6, 1e-12),
    "sep_frob": (1e-8, 0.0),
}
# column names used by the sweep CSV for the same quantities
_SWEEP_NAMES = {"new_perj": "new_value_perj", "new_dl": "new_value_dl",
                "classical": "classical_value"}
REFERENCE_RULES = {
    "delta0": "rise",
    "sep_lower": "rise",
    "classical_value": "fall",
    "t0_star": "skip",
    "classical_valid": "skip",
    "stewart_condition_ok": "skip",
    "seed": "skip",
    "measured_sin": (1e-6, 1e-13),
    "sep_frob": (1e-8, 0.0),
}
DEFAULT_RULE = (1e-8, 1e-15)
REPORT_KEYS = ("delta0", "delta1", "delta_lambda", "t0_star", "a", "kappa_X1", "kappa_V2",
               "dA_spec", "dA_frob", "classical_value", "classical_valid", "new_value_perj",
               "new_value_dl", "sep_frob", "sep_lower", "stewart_condition_ok",
               "measured_sin", "gap_ok", "dominance_ok", "match_strategy")
TABLE1_EPS = (1e-2, 1e-4, 1e-6, 1e-8, 1e-10)
TABLE1_A_ONLY = ("delta0", "delta1", "kappa_X1", "kappa_V2", "classical")

_GAMMA, _MIX1, _MIX2 = 0x9E3779B97F4A7C15, 0xBF58476D1CE4E5B9, 0x94D049BB133111EB


# ---------------------------------------------------------------- inputs


def load_matrix(path: Path) -> np.ndarray:
    obj = json.loads(Path(path).read_text())
    data = np.array([complex(re, im) for re, im in obj["entries"]], dtype=np.complex128)
    return data.reshape(obj["rows"], obj["cols"])


def gaussian_perturbation(n: int, norm: float, seed: int) -> np.ndarray:
    """Rebuild ``gaussian:NORM`` from its documented definition: SplitMix64
    words, u = ((w >> 11) + 0.5) 2^-53, standard normals by the inverse CDF,
    row-major, rescaled to the target spectral norm."""
    k = np.arange(1, n * n + 1, dtype=np.uint64)
    with np.errstate(over="ignore"):
        z = np.uint64(seed % (1 << 64)) + k * np.uint64(_GAMMA)
        z = (z ^ (z >> np.uint64(30))) * np.uint64(_MIX1)
        z = (z ^ (z >> np.uint64(27))) * np.uint64(_MIX2)
    z = z ^ (z >> np.uint64(31))
    u = ((z >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0 ** -53
    g = scipy.special.ndtri(u).reshape(n, n).astype(np.complex128)
    return g * (norm / np.linalg.norm(g, 2))


def example11(eps: float) -> np.ndarray:
    return np.array([[1.0, 1.0, 0.0], [eps, 1.0, 0.0], [0.0, 0.0, 0.5]], dtype=np.complex128)


def tight_general(r: int, delta: float, eps: float) -> tuple[np.ndarray, np.ndarray]:
    n = r + 1
    a = np.diag([1.0 - j * delta for j in range(n)]).astype(np.complex128)
    for j in range(1, r):
        a[j, j - 1] = 1.0
    da = np.zeros((n, n), dtype=np.complex128)
    da[r, r - 1] = eps
    return a, da


# ---------------------------------------------------------- recomputation


def _sorted_eig(a: np.ndarray):
    w, x = scipy.linalg.eig(a)
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    return w[order], x[:, order]


def _cond(m: np.ndarray) -> float:
    s = scipy.linalg.svdvals(m)
    return float(s[0] / s[-1])


def sep_sylvester(l1: np.ndarray, l2: np.ndarray) -> float:
    """Smallest singular value of S: T -> T L1 - L2 T, without forming S.

    Lanczos (ARPACK) finds the largest eigenvalue, 1/sep^2, of the inverse
    Gram operator (S^H S)^-1 = S^-1 S^-H; each product is two Bartels-Stewart
    solves.  At the seed commit it agreed with the dense Kronecker SVD to
    5e-14 relative on the tightgeneral report and on the random reports of
    both report workloads (n = 8 to 96), and at n = 96 it takes 0.4 s where
    the dense SVD takes 5.8 s.
    """
    r, m = l1.shape[0], l2.shape[0]

    def matvec(v):
        y = scipy.linalg.solve_sylvester(-l2.conj().T, l1.conj().T, v.reshape(m, r))
        return scipy.linalg.solve_sylvester(-l2, l1, y).ravel()

    gram_inv = LinearOperator((r * m, r * m), matvec=matvec, dtype=np.complex128)
    lam = eigsh(gram_inv, k=1, which="LA", tol=0, v0=np.ones(r * m, dtype=np.complex128))[0][0]
    return float(1.0 / np.sqrt(lam))


def disk_margins(t: np.ndarray, l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    d1 = np.abs(l1[:, None] - t[None, :])
    d2 = np.abs(l2[:, None] - t[None, :])
    return np.maximum(d2.min(axis=0) - d1.max(axis=0), d1.min(axis=0) - d2.max(axis=0))


def recompute(a: np.ndarray, da: np.ndarray, k: int, with_sep: bool = True) -> dict:
    """Report quantities for (A, dA, topk:k) from scipy/numpy alone."""
    from splab.oracles import brute_force_sin_theta
    from splab.partition import TopKMagnitude

    w, x = _sorted_eig(a)
    wt = scipy.linalg.eigvals(a + da)
    wt = wt[np.lexsort((-wt.imag, -wt.real, -np.abs(wt)))]
    l1, l2, lt1 = w[:k], w[k:], wt[:k]
    xn = x / np.linalg.norm(x, axis=0)
    v = np.linalg.inv(xn).conj().T
    gaps = np.abs(lt1[:, None] - l2[None, :]).min(axis=1)
    da_spec, da_frob = float(np.linalg.norm(da, 2)), float(np.linalg.norm(da, "fro"))
    a_spec = float(np.linalg.norm(a, 2))
    big_a = a_spec + da_spec + float(np.abs(l2).max())
    kv2 = _cond(v[:, k:])
    lead = kv2 * da_frob / big_a
    out = {
        "delta1": float(np.abs(l1[:, None] - l2[None, :]).min()),
        "delta_lambda": float(gaps.min()),
        "dA_spec": da_spec,
        "dA_frob": da_frob,
        "a": big_a,
        "a_spec": a_spec,
        "kappa_X1": _cond(xn[:, :k]),
        "kappa_V2": kv2,
        "new_value_perj": lead * float(np.prod(1.0 + big_a / gaps)),
        "new_value_dl": lead * (1.0 + big_a / float(gaps.min())) ** k,
        "measured_sin": brute_force_sin_theta(a, da, TopKMagnitude(k)),
        "lambda1": l1,
        "lambda2": l2,
    }
    if with_sep:
        q1 = scipy.linalg.orth(xn[:, :k])
        q2 = scipy.linalg.null_space(q1.conj().T)
        out["sep_frob"] = sep_sylvester(q1.conj().T @ a @ q1, q2.conj().T @ a @ q2)
    return out


# ----------------------------------------------------------------- checks


def _close(got: float, ref: float, rtol: float, atol: float) -> bool:
    if math.isinf(got) or math.isinf(ref):
        return got == ref
    return abs(got - ref) <= rtol * abs(ref) + atol


def _is_number(value) -> bool:
    """True for floats and for the decimal strings splab writes ("inf" too)."""
    if isinstance(value, float):
        return True
    if not isinstance(value, str):
        return False
    try:
        float(value)
    except ValueError:
        return False
    return True


def _apply_rule(name: str, got, ref, rule) -> str | None:
    if rule == "skip":
        return None
    if not _is_number(ref):
        return None if got == ref else f"{name}: {got!r} != reference {ref!r}"
    g, r = float(got), float(ref)
    if rule == "rise":
        ok = g >= r * (1.0 - 1e-9) - 1e-15
    elif rule == "fall":
        ok = g <= r * (1.0 + 1e-9) + 1e-15
    else:
        ok = _close(g, r, *rule)
    return None if ok else f"{name}: {g!r} vs reference {r!r} ({rule})"


def compare_reference(got: dict, ref: dict, where: str) -> list[str]:
    problems = []
    for name, ref_value in ref.items():
        if name not in got:
            problems.append(f"{where}: field {name} missing")
            continue
        rule = REFERENCE_RULES.get(_SWEEP_NAMES.get(name, name), DEFAULT_RULE)
        problem = _apply_rule(name, got[name], ref_value, rule)
        if problem:
            problems.append(f"{where}: {problem}")
    return problems


def compare_recomputed(got: dict, ref: dict, where: str) -> list[str]:
    problems = []
    for name, value in got.items():
        key = _SWEEP_NAMES.get(name, name)
        if key in RECOMPUTE_TOL and key in ref:
            if not _close(float(value), ref[key], *RECOMPUTE_TOL[key]):
                problems.append(f"{where}: {name} = {float(value)!r}, recomputed "
                                f"{ref[key]!r} (tol {RECOMPUTE_TOL[key]})")
    return problems


def check_delta0(rep: dict, l1: np.ndarray, l2: np.ndarray, where: str) -> list[str]:
    """delta0 is the clipped disk margin at t0_star, below delta1, and within
    the program's documented grid resolution (pitch diam/200; the margin is
    2-Lipschitz) of an independent 101 x 101 grid over the same box."""
    d0, d1 = float(rep["delta0"]), float(rep["delta1"])
    problems = []
    if d0 > d1 * (1 + 1e-12):
        problems.append(f"{where}: delta0 {d0!r} > delta1 {d1!r}")
    pts = np.concatenate([l1, l2])
    width, height = np.ptp(pts.real), np.ptp(pts.imag)
    diam = float(np.hypot(width, height))
    t0 = complex(float(rep["t0_star"][0]), float(rep["t0_star"][1]))
    at_t0 = max(min(float(disk_margins(np.array([t0]), l1, l2)[0]), d1), 0.0)
    if abs(d0 - at_t0) > 1e-9 * diam + 1e-14:
        problems.append(f"{where}: delta0 {d0!r} but disk margin at t0_star is {at_t0!r}")
    centre = complex(0.5 * (pts.real.min() + pts.real.max()), 0.5 * (pts.imag.min() + pts.imag.max()))
    re = centre.real + np.linspace(-0.75, 0.75, 101) * width
    im = centre.imag + np.linspace(-0.75, 0.75, 101) * height
    grid = (re[None, :] + 1j * im[:, None]).reshape(-1)
    floor = float(disk_margins(grid, l1, l2).max()) - math.sqrt(2.0) * diam / 200.0
    if d0 < floor - 1e-14:
        problems.append(f"{where}: delta0 {d0!r} below the grid floor {floor!r}")
    return problems


def check_report(rep: dict, a: np.ndarray, da: np.ndarray, k: int, nearest: bool,
                 where: str) -> list[str]:
    missing = [key for key in REPORT_KEYS if key not in rep]
    if missing:
        return [f"{where}: missing fields {missing}"]
    ref = recompute(a, da, k)
    problems = compare_recomputed(rep, ref, where)
    problems += check_delta0(rep, ref["lambda1"], ref["lambda2"], where)
    num = {key: float(rep[key]) for key in REPORT_KEYS if _is_number(rep[key])}
    if num["new_value_perj"] > num["new_value_dl"] * (1 + 1e-12):
        problems.append(f"{where}: perj {num['new_value_perj']!r} > dl {num['new_value_dl']!r}")
    numer = 2.0 * num["kappa_X1"] * num["kappa_V2"] * num["dA_spec"]
    valid = num["delta0"] > numer
    classical = numer / (num["delta0"] - numer) if valid else math.inf
    if rep["classical_valid"] != valid or not _close(num["classical_value"], classical, 1e-12, 0.0):
        problems.append(f"{where}: classical {rep['classical_value']}/{rep['classical_valid']} "
                        f"does not follow from delta0, kappas and dA_spec ({classical!r})")
    sep_lower = num["delta0"] / (num["kappa_X1"] * num["kappa_V2"])
    if not _close(num["sep_lower"], sep_lower, 1e-12, 0.0):
        problems.append(f"{where}: sep_lower {num['sep_lower']!r}, expected {sep_lower!r}")
    lhs = num["dA_spec"] * (ref["a_spec"] + num["dA_spec"])
    rhs = 0.25 * max(num["sep_frob"] - 2.0 * num["dA_spec"], 0.0) ** 2
    if abs(lhs - rhs) > 1e-9 * max(lhs, rhs) and rep["stewart_condition_ok"] != (lhs < rhs):
        problems.append(f"{where}: stewart_condition_ok does not follow from sep and norms")
    if rep["gap_ok"] != (num["delta_lambda"] > 0.0):
        problems.append(f"{where}: gap_ok inconsistent with delta_lambda")
    if rep["dominance_ok"] != (num["measured_sin"] <= num["new_value_perj"]):
        problems.append(f"{where}: dominance_ok inconsistent with measured_sin and perj")
    strategy = "nearest-assignment" if nearest else "same-selector"
    if rep["match_strategy"] != strategy:
        problems.append(f"{where}: match_strategy {rep['match_strategy']!r} != {strategy!r}")
    return problems


def check_eig(obj: dict, a: np.ndarray, where: str) -> list[str]:
    lam = np.array([complex(re, im) for re, im in obj["lambda"]])
    x = np.array([complex(re, im) for re, im in obj["X"]["entries"]]).reshape(a.shape)
    v = np.array([complex(re, im) for re, im in obj["V"]["entries"]]).reshape(a.shape)
    w, _ = _sorted_eig(a)
    scale = float(np.linalg.norm(a, 2))
    kappa = _cond(x)
    problems = []
    if np.max(np.abs(lam - w)) > 1e-10 * scale:
        problems.append(f"{where}: eigenvalues differ from scipy by {np.max(np.abs(lam - w)):.3e}")
    if np.max(np.abs(np.linalg.norm(x, axis=0) - 1.0)) > 1e-12:
        problems.append(f"{where}: eigenvector columns are not unit norm")
    if np.linalg.norm(a @ x - x * lam[None, :], 2) > 1e-10 * scale:
        problems.append(f"{where}: eigen residual too large")
    if np.linalg.norm(v.conj().T @ x - np.eye(a.shape[0]), 2) > 1e-10 * max(kappa, 1.0):
        problems.append(f"{where}: V is not the dual basis of X")
    if not _close(float(obj["kappa_x"]), kappa, 1e-9, 0.0):
        problems.append(f"{where}: kappa_x {obj['kappa_x']} vs cond(X) {kappa!r}")
    return problems


def check_verify(records: list, suite: str, cases: int | None, seed: int,
                 where: str) -> list[str]:
    problems = []
    if cases is not None and len(records) != cases:
        problems.append(f"{where}: {len(records)} records, expected {cases}")
    if not records:
        problems.append(f"{where}: no records")
    failed = [rec["case_id"] for rec in records if rec["pass"] is not True]
    if failed:
        problems.append(f"{where}: records not passing: {failed[:5]}")
    if suite == "dominance":
        for k, rec in enumerate(records):
            if rec["seed"] != seed + k:
                problems.append(f"{where}: record {k} has seed {rec['seed']}")
                break
            if float(rec["perj"]) > float(rec["dl"]) * (1 + 1e-12):
                problems.append(f"{where}: {rec['case_id']} perj > dl")
                break
    return problems


def _csv_rows(path: Path) -> list[dict]:
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def check_table1(rows: list[dict], stderr: str, pseed: int, ref: dict,
                 where: str) -> list[str]:
    problems = []
    if len(rows) != len(TABLE1_EPS):
        return [f"{where}: {len(rows)} rows, expected {len(TABLE1_EPS)}"]
    da = gaussian_perturbation(3, workloads.GAUSSIAN_NORM, pseed)
    for eps, row in zip(TABLE1_EPS, rows):
        here = f"{where} eps={eps:g}"
        if float(row["param"]) != eps or int(row["seed"]) != pseed:
            problems.append(f"{here}: param/seed columns {row['param']}/{row['seed']}")
        got = {key: row[key] for key in ("measured_sin", "new_perj", "new_dl", "delta_lambda")}
        problems += compare_recomputed(got, recompute(example11(eps), da, 2, with_sep=False), here)
        problems += compare_reference(row, ref[repr(eps)], here)
        if float(row["delta0"]) > float(row["delta1"]) * (1 + 1e-12):
            problems.append(f"{here}: delta0 > delta1")
        if float(row["new_perj"]) > float(row["new_dl"]) * (1 + 1e-12):
            problems.append(f"{here}: perj > dl")
    if "eps=1e-08" not in stderr:
        problems.append(f"{where}: the eps=1e-8 reference-table note is missing from stderr")
    return problems


def _load_output(path: Path):
    if path.suffix == ".csv":
        return _csv_rows(path)
    return json.loads(path.read_text())


def check_op(op: workloads.Op, work: Path, saved: Path, stderr: str,
             reference: dict) -> list[str]:
    """Problems with the first-round output of one operation."""
    where = op.name
    path = saved / op.out
    if not path.exists():
        return [f"{where}: output {op.out} was not written"]
    got = _load_output(path)
    if op.kind == "table1":
        return check_table1(got, stderr, op.meta["seed"], reference["table1"], where)
    if op.kind == "golden":
        ref = reference[op.out]
        if len(got) != len(ref):
            return [f"{where}: {len(got)} rows, expected {len(ref)}"]
        problems = []
        for k, (row, ref_row) in enumerate(zip(got, ref)):
            problems += compare_reference(row, ref_row, f"{where}[{k}]")
        if op.out == "special.json":
            problems += [f"{where}: row {k} does not pass" for k, row in enumerate(got)
                         if row["pass"] is not True]
        return problems
    if op.kind == "example":
        a, da = tight_general(workloads.TIGHT_R, workloads.TIGHT_DELTA, workloads.TIGHT_EPS)
        problems = []
        for name, expect in ((op.out, a), ("tight-dA.json", da)):
            if not (saved / name).exists() or not np.array_equal(load_matrix(saved / name), expect):
                problems.append(f"{where}: {name} is not the tightgeneral family matrix")
        return problems
    if op.kind == "report":
        if "input" in op.meta:
            a = load_matrix(work / op.meta["input"])
            da = gaussian_perturbation(a.shape[0], workloads.GAUSSIAN_NORM,
                                       op.meta["perturb_seed"])
            problems = []
        else:
            a, da = tight_general(workloads.TIGHT_R, workloads.TIGHT_DELTA, workloads.TIGHT_EPS)
            problems = compare_reference(got, reference[op.out], where)
        return problems + check_report(got, a, da, op.meta["k"], op.meta["nearest"], where)
    if op.kind == "eig":
        return check_eig(got, load_matrix(work / op.meta["input"]), where)
    if op.kind == "verify":
        return check_verify(got, op.meta["suite"], op.meta["cases"],
                            int(op.argv[op.argv.index("--seed") + 1]), where)
    raise ValueError(f"no check for kind {op.kind!r}")


def record_reference(saved: Path) -> dict:
    """Reference values from one round of small-reports outputs."""
    ref = {name: _load_output(saved / name)
           for name in ("tight-r2.csv", "tight-r3.csv", "v2nec.json", "special.json",
                        "tight-report.json")}
    rows = _csv_rows(saved / "table1.csv")
    ref["table1"] = {repr(float(row["param"])): {key: row[key] for key in TABLE1_A_ONLY}
                     for row in rows}
    return ref
