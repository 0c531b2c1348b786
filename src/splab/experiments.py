"""Worked example families and sweep harnesses.

Each generator returns the exact matrix display for a studied family plus an
analytic facts record (closed-form eigenvalues, spanning vectors, leading
terms) that the test suites compare against.  The sweep harnesses reproduce
the reference comparison table for the near-Jordan 3x3 family and the
tightness/necessity studies for the product bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Union

import numpy as np

from .bounds import COLUMN_READERS, analyze
from .errors import IndexOutOfRange, SpecViolation
from .oracles import brute_force_sin_theta
from .partition import TopKMagnitude
from .rng import SplitMix64


@dataclass(frozen=True)
class Example11:
    """Near-Jordan 2x2 block [[1, 1], [eps, 1]] stacked over the scalar 1/2."""

    eps: float


@dataclass(frozen=True)
class TightGeneral:
    """(r+1)x(r+1) lower-bidiagonal family showing the r-th power dependence."""

    r: int
    delta: float
    eps: float


@dataclass(frozen=True)
class V2NecessityN:
    """n x n family, n >= 3, showing the dual-basis condition number cannot
    be dropped."""

    n: int
    delta: float
    delta1: float
    eps: float


ExampleSpec = Union[Example11, TightGeneral, V2NecessityN]

# CLI family name -> spec class; each field is read from the flag of its name
FAMILIES = {"example11": Example11, "tightgeneral": TightGeneral,
            "v2necessityn": V2NecessityN}


@dataclass(frozen=True)
class ExampleFacts:
    """Closed-form reference facts attached to a generated example."""

    family: str
    r: int
    selector: TopKMagnitude
    lambda1: tuple[complex, ...]
    lambda2: tuple[complex, ...]
    kappa_x1: float | None = None
    kappa_v2_leading: float | None = None
    x1_span: np.ndarray | None = None
    x1_tilde_span: np.ndarray | None = None
    witness: np.ndarray | None = None
    witness_sin_leading: float | None = None
    perturbation: np.ndarray | None = None


def gen_example(spec: ExampleSpec) -> tuple[np.ndarray, ExampleFacts]:
    """Exact matrix for the family plus its analytic reference record.

    Raises SpecViolation when family parameters fall outside their guards.
    """
    if isinstance(spec, Example11):
        return _gen_example11(spec)
    if isinstance(spec, TightGeneral):
        return _gen_tight(spec)
    if isinstance(spec, V2NecessityN):
        if spec.n < 3:
            raise SpecViolation("V2NecessityN: need n >= 3")
        return _gen_necessity(spec.n, spec.delta, spec.delta1, spec.eps)
    raise SpecViolation(f"unknown example family {spec!r}")


def _gen_example11(spec: Example11) -> tuple[np.ndarray, ExampleFacts]:
    eps = float(spec.eps)
    if not 0.0 < eps < 1.0:
        raise SpecViolation(f"Example11: need 0 < eps < 1, got {eps}")
    a = np.array([[1.0, 1.0, 0.0],
                  [eps, 1.0, 0.0],
                  [0.0, 0.0, 0.5]], dtype=np.complex128)
    root = math.sqrt(eps)
    span = np.array([[1.0, 1.0],
                     [root, -root],
                     [0.0, 0.0]], dtype=np.complex128)
    facts = ExampleFacts(
        family="example11",
        r=2,
        selector=TopKMagnitude(2),
        lambda1=(complex(1.0 + root), complex(1.0 - root)),
        lambda2=(complex(0.5),),
        kappa_x1=1.0 / root,
        kappa_v2_leading=1.0,
        x1_span=span,
    )
    return a, facts


def _check_tight(r: int, delta: float) -> None:
    """TightGeneral's guards on r and delta; past them delta**r cannot
    overflow."""
    if r < 1:
        raise SpecViolation(f"TightGeneral: need r >= 1, got {r}")
    if not 0.0 < delta < 1.0:
        raise SpecViolation(f"TightGeneral: need 0 < delta < 1, got {delta}")
    if r * delta >= 1.0:
        raise SpecViolation(f"TightGeneral: need r*delta < 1, got {r * delta}")


def _gen_tight(spec: TightGeneral) -> tuple[np.ndarray, ExampleFacts]:
    r, delta, eps = int(spec.r), float(spec.delta), float(spec.eps)
    _check_tight(r, delta)
    if not 0.0 < eps <= 0.01 * delta ** r:
        raise SpecViolation(
            f"TightGeneral: need 0 < eps <= 0.01*delta^r = {0.01 * delta ** r:.3e}")
    n = r + 1
    a = np.zeros((n, n), dtype=np.complex128)
    for j in range(n):
        a[j, j] = 1.0 - j * delta
    for j in range(1, r):
        a[j, j - 1] = 1.0
    da = np.zeros((n, n), dtype=np.complex128)
    da[r, r - 1] = eps
    lead = eps / (math.factorial(r) * delta ** r)
    witness = np.zeros(n, dtype=np.complex128)
    witness[0] = 1.0
    witness[-1] = ((-1) ** (r - 1)) * lead
    tilde_span = None
    if r == 2:
        tilde_span = np.array([[1.0, 0.0],
                               [1.0 / delta, 1.0],
                               [eps / (2.0 * delta ** 2), eps / delta]],
                              dtype=np.complex128)
    facts = ExampleFacts(
        family=f"tight-r{r}",
        r=r,
        selector=TopKMagnitude(r),
        lambda1=tuple(complex(1.0 - j * delta) for j in range(r)),
        lambda2=(complex(1.0 - r * delta),),
        kappa_v2_leading=1.0,
        x1_tilde_span=tilde_span,
        witness=witness,
        witness_sin_leading=lead,
        perturbation=da,
    )
    return a, facts


def _gen_necessity(n: int, delta: float, delta1: float,
                   eps: float) -> tuple[np.ndarray, ExampleFacts]:
    delta, delta1, eps = float(delta), float(delta1), float(eps)
    if not 0.0 < delta <= 0.1 or not 0.0 < delta1 <= 0.1:
        raise SpecViolation("necessity family: need 0 < delta, delta1 <= 0.1")
    if not 0.0 < eps <= 0.01 * delta ** 2:
        raise SpecViolation(
            f"necessity family: need 0 < eps <= 0.01*delta^2 = {0.01 * delta ** 2:.3e}")
    a = np.zeros((n, n), dtype=np.complex128)
    a[0, 0] = 1.0 + delta
    a[1, 1] = 1.0
    a[2, 1] = 0.5
    a[2, 2] = 1.0 - delta1
    for j in range(3, n):
        a[j, j] = 1.0 - 2.0 * delta1
    da = np.zeros((n, n), dtype=np.complex128)
    da[1, 0] = eps
    vec = np.zeros(n, dtype=np.complex128)
    vec[0] = 1.0
    vec[1] = eps / delta
    vec[2] = eps / (2.0 * delta * (delta + delta1))
    lambda2 = [complex(1.0), complex(1.0 - delta1)] + [complex(1.0 - 2.0 * delta1)] * (n - 3)
    facts = ExampleFacts(
        family=f"necessity-n{n}",
        r=1,
        selector=TopKMagnitude(1),
        lambda1=(complex(1.0 + delta),),
        lambda2=tuple(lambda2),
        kappa_v2_leading=1.0 / delta1,
        x1_tilde_span=vec.reshape(-1, 1),
        witness=vec,
        witness_sin_leading=eps / (2.0 * delta * (delta + delta1)),
        perturbation=da,
    )
    return a, facts


def gen_unit_perturbation(n: int, i: int, j: int, eps1: float) -> np.ndarray:
    """eps1 at the (i, j) entry (1-based), zero elsewhere."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise IndexOutOfRange(f"unit perturbation: ({i}, {j}) outside 1..{n}")
    if eps1 <= 0:
        raise SpecViolation("unit perturbation: eps1 must be positive")
    da = np.zeros((n, n), dtype=np.complex128)
    da[i - 1, j - 1] = eps1
    return da


def gen_gaussian_perturbation(n: int, target_spectral_norm: float,
                              seed: int) -> np.ndarray:
    """Real i.i.d. standard-normal matrix from the portable stream, rescaled
    after measuring so its spectral norm equals the target exactly."""
    if n < 1 or not 0 < target_spectral_norm < math.inf:
        raise SpecViolation("gaussian perturbation: need n >= 1 and a finite norm > 0")
    g = SplitMix64(seed).normals(n, n).astype(np.complex128)
    return g * (target_spectral_norm / np.linalg.norm(g, 2))


SWEEP_COLUMNS = ("param", "measured_sin", "classical", "new_perj", "new_dl",
                 "delta0", "delta1", "delta_lambda", "kappa_X1", "kappa_V2", "seed")

# the report quantities of a v2necessity record, in its key order
V2_COLUMNS = ("measured_sin", "new_perj", "new_dl", "kappa_V2")

# Published reference row for the classical bound in the comparison table,
# which holds for ||dA||_2 = TABLE1_REFERENCE_NORM only; a sweep at another
# norm is not compared with it.  The 1e-8 entry is inconsistent with direct
# evaluation of the bound formula (which gives ~4.2e-2); mismatches are
# flagged in the notes, never matched.
TABLE1_REFERENCE_NORM = 1e-6
TABLE1_REFERENCE_CLASSICAL = {
    1e-2: 5.00e-5,
    1e-4: 4.08e-4,
    1e-6: 4.00e-3,
    1e-8: 4.2e-3,
    1e-10: 0.67,
}


@dataclass(frozen=True)
class SweepResult:
    columns: tuple[str, ...]
    rows: tuple[dict, ...]
    notes: tuple[str, ...] = ()
    summary: tuple[tuple[str, float], ...] = ()


def _report_row(a, da, selector, param: float, seed: int) -> dict:
    """``param``, then each report quantity whose ``BoundReport`` field has a
    sweep column, read as ``full_report`` reads it, then ``seed``; sep, which
    no column prints, is never computed."""
    run = analyze(a, da, selector)
    return {"param": float(param), **{c: read(run) for c, read in COLUMN_READERS.items()},
            "seed": int(seed)}


def run_table1_sweep(eps_list, da_norm: float, seed: int) -> SweepResult:
    """Comparison-table sweep: one shared Gaussian perturbation across the
    whole eps grid, measured distance versus both bounds per grid point.
    At ``da_norm`` = ``TABLE1_REFERENCE_NORM`` each classical-bound entry is
    compared with the published row, and a note names each mismatch."""
    eps_values = [float(e) for e in eps_list]
    da = gen_gaussian_perturbation(3, da_norm, seed)
    rows = [_report_row(gen_example(Example11(eps))[0], da, TopKMagnitude(2), eps, seed)
            for eps in eps_values]
    notes = []
    for row in rows if da_norm == TABLE1_REFERENCE_NORM else ():
        ref = next((val for key, val in TABLE1_REFERENCE_CLASSICAL.items()
                    if abs(row["param"] - key) <= 1e-9 * key), None)
        if ref is None:
            continue
        rel = abs(row["classical"] - ref) / ref
        if rel > 0.02:
            notes.append(
                f"table1: classical bound at eps={row['param']:.0e} computed "
                f"{row['classical']:.6e} differs from the reference value {ref:.2e} "
                f"by {rel * 100:.0f}% (known reference-table inconsistency; "
                f"computed value reported)")
    return SweepResult(columns=SWEEP_COLUMNS, rows=tuple(rows), notes=tuple(notes))


def run_tightness_sweep(r: int, delta_list, eps_rule: float = 0.01,
                        seed: int = 42) -> SweepResult:
    """Gap-power tightness sweep: eps tied to c*delta^r, measured distance
    compared against the analytic witness leading term eps/(r! delta^r)."""
    if not 0.0 < eps_rule <= 0.01:
        raise SpecViolation("tightness sweep: eps rule coefficient must be in (0, 0.01]")
    deltas = [float(d) for d in delta_list]
    rows, eps_values, ratios = [], [], []
    for delta in deltas:
        _check_tight(r, delta)  # before delta**r, which a float power can overflow
        eps = eps_rule * delta ** r
        a, facts = gen_example(TightGeneral(r=r, delta=delta, eps=eps))
        rows.append(_report_row(a, facts.perturbation, facts.selector, delta, seed))
        eps_values.append(eps)
        ratios.append(rows[-1]["measured_sin"] / facts.witness_sin_leading)
    logs_d = np.log(deltas)
    logs_m = np.log([row["measured_sin"] for row in rows])
    logs_adj = np.log([row["measured_sin"] / eps for row, eps in zip(rows, eps_values)])
    slope = float(np.polyfit(logs_d, logs_m, 1)[0]) if len(rows) > 1 else math.nan
    slope_adj = float(np.polyfit(logs_d, logs_adj, 1)[0]) if len(rows) > 1 else math.nan
    summary = (("slope", slope), ("slope_adjusted", slope_adj),
               ("ratio_leading_min", float(min(ratios))),
               ("ratio_leading_max", float(max(ratios))))
    return SweepResult(columns=SWEEP_COLUMNS, rows=tuple(rows), summary=summary)


def run_v2_necessity(delta: float, delta1: float, eps: float,
                     n: int | None = None) -> dict:
    """Necessity check for the dual-basis condition number: the full bound
    must dominate the measured distance while the bound divided by k2(V2)
    must fail to, in the regime delta1 <= delta/10.  ``n`` of None is 3."""
    a, facts = gen_example(V2NecessityN(3 if n is None else n, delta, delta1, eps))
    run = analyze(a, facts.perturbation, facts.selector)
    values = {c: read(run) for c, read in COLUMN_READERS.items() if c in V2_COLUMNS}
    rep = {c: values[c] for c in V2_COLUMNS}  # read in field order, kept in record order
    reduced = rep["new_perj"] / rep["kappa_V2"]
    return {
        "family": facts.family,
        "delta": float(delta),
        "delta1": float(delta1),
        "eps": float(eps),
        **rep,
        "bound_over_kappa_v2": reduced,
        "witness_sin_leading": facts.witness_sin_leading,
        "measured_le_bound": bool(rep["measured_sin"] <= rep["new_perj"]),
        "strict_regime": bool(delta1 <= delta / 10.0),
        "measured_exceeds_reduced": bool(rep["measured_sin"] > reduced),
    }


SPECIAL_ZERO_PAIRS = ((1, 1), (1, 2), (2, 1), (2, 2), (1, 3), (2, 3), (3, 3))


def run_special_perturbation_suite(eps: float, eps1: float) -> list[dict]:
    """All nine unit perturbations of the near-Jordan family: seven leave the
    studied subspace exactly invariant, the two bottom-row couplings move it
    by at most a small multiple of the perturbation size."""
    a, _ = gen_example(Example11(eps))
    rows = []
    for i in range(1, 4):
        for j in range(1, 4):
            da = gen_unit_perturbation(3, i, j, eps1)
            measured = brute_force_sin_theta(a, da, TopKMagnitude(2))
            zero_expected = (i, j) in SPECIAL_ZERO_PAIRS
            threshold = 1e-10 if zero_expected else 10.0 * eps1
            rows.append({
                "i": i,
                "j": j,
                "measured_sin": measured,
                "zero_expected": zero_expected,
                "threshold": threshold,
                "pass": bool(measured <= threshold),
            })
    return rows
