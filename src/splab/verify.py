"""Seeded Monte Carlo verification suites.

Five named suites back the ``verify`` CLI command and the acceptance tests:
two exact-identity suites (Hadamard form and the characteristic-polynomial
row form), the contour/quadrature suite, the bound-dominance suite, and the
scale-invariance suite.  Every case derives its own seed from the base seed
plus a running index, so suites are reproducible and order-independent.
"""

from __future__ import annotations

import numpy as np

from .bounds import analyze
from .errors import SpecViolation
from .experiments import Example11, TightR2, gen_example
from .linalg import eig
from .oracles import (
    Contour,
    OracleContext,
    build_oracle_context,
    contour_coupling_matrix,
    contour_projector,
    coupling_row,
    hadamard_identity_residual,
    hadamard_identity_threshold,
    residue_coupling_matrix,
)
from .partition import NearestAssignment, TopKMagnitude, partition
from .rng import SplitMix64

# Suite criteria: they decide which cases a suite runs and when it passes.
QUAD_TOL = 1e-8          # residue-vs-quadrature agreement
SUITE_KAPPA_CAP = 1e6    # identity-suite filter on kappa2(R_V2)*kappa2(R_X1t)
SIGMA_R_FLOOR = 1e-280   # skip cases whose charpoly constant term underflows

SAMPLE_MIN_GAP = 0.1     # pairwise eigenvalue separation of a sampled spectrum
SAMPLE_KAPPA_MAX = 1e3   # largest kappa2(X) of a sampled eigenvector basis


def _record(case_id: str, seed: int, residual: float, threshold: float) -> dict:
    return {
        "case_id": case_id,
        "seed": int(seed),
        "residual": float(residual),
        "threshold": float(threshold),
        "pass": bool(residual <= threshold),
    }


def _unit_square_points(g: SplitMix64, count: int) -> np.ndarray:
    """``count`` complex points uniform in the square [-1, 1]^2, each drawn
    real part first."""
    return (2.0 * g.uniforms(2 * count) - 1.0).view(np.complex128)


def _sample_spectrum(g: SplitMix64, n: int) -> np.ndarray:
    """Eigenvalues in the unit square, pairwise at least SAMPLE_MIN_GAP apart."""
    for _ in range(400):
        lam = _unit_square_points(g, n)
        diff = np.abs(lam[:, np.newaxis] - lam[np.newaxis, :])
        np.fill_diagonal(diff, np.inf)
        if diff.min() >= SAMPLE_MIN_GAP:
            return lam
    raise SpecViolation("spectrum sampling failed")


def _sample_matrix(g: SplitMix64, lam: np.ndarray) -> tuple[np.ndarray, float]:
    """A = X diag(lam) X^{-1} for a random unit-column basis X with
    kappa2(X) <= SAMPLE_KAPPA_MAX; returns (A, kappa2(X))."""
    n = lam.shape[0]
    for _ in range(200):
        x = g.complex_normals(n, n)
        x = x / np.linalg.norm(x, axis=0)[np.newaxis, :]
        s = np.linalg.svd(x, compute_uv=False)
        if s[-1] > 0 and s[0] / s[-1] <= SAMPLE_KAPPA_MAX:
            break
    else:
        raise SpecViolation("eigenvector basis sampling failed")
    return x @ np.diag(lam) @ np.linalg.inv(x), float(s[0] / s[-1])


def random_diagonalizable_case(seed: int, da_divisor: float = 100.0):
    """One seeded case: diagonalizable A, a kept-block size r, and a dense
    perturbation scaled so the post-perturbation gap provably dominates.

    The perturbation norm is delta1 / (da_divisor * kappa2(X)); first-order
    eigenvalue perturbation is below kappa2(X) * ||dA||, so the assignment
    between spectra stays unambiguous and delta_lambda >= 10 ||dA|| holds
    with room to spare for da_divisor >= 100.
    """
    g = SplitMix64(seed)
    n = g.integer(3, 10)
    r = g.integer(1, min(4, n - 1))
    lam = _sample_spectrum(g, n)
    a, kappa = _sample_matrix(g, lam)
    lam_sorted = lam[np.lexsort((-lam.imag, -lam.real, -np.abs(lam)))]
    delta1 = float(np.min(np.abs(lam_sorted[:r, np.newaxis]
                                 - lam_sorted[np.newaxis, r:])))
    direction = g.complex_normals(n, n)
    da = direction * (delta1 / (da_divisor * kappa) / np.linalg.norm(direction, 2))
    return a, da, r


def random_clustered_case(seed: int):
    """Like ``random_diagonalizable_case`` but with the kept eigenvalues
    clustered away from the rest, so a separating circle exists (the
    enclosure assumption of the contour machinery)."""
    g = SplitMix64(seed)
    n = g.integer(3, 8)
    r = g.integer(1, min(3, n - 1))
    for _ in range(400):
        kept = 1.5 + 0.3 * _unit_square_points(g, r)
        rest = 0.55 * _unit_square_points(g, n - r)
        lam = np.concatenate([kept, rest])
        diff = np.abs(lam[:, np.newaxis] - lam[np.newaxis, :])
        np.fill_diagonal(diff, np.inf)
        if diff.min() >= 0.05:
            break
    else:
        raise SpecViolation("clustered spectrum sampling failed")
    a, kappa = _sample_matrix(g, lam)
    direction = g.complex_normals(n, n)
    da = direction * (0.05 / (100.0 * kappa) / np.linalg.norm(direction, 2))
    return a, da, r


def run_identity_suite(kind: str, base_seed: int = 42, cases: int = 100) -> list[dict]:
    """Exact-identity suites: kind "lemma32" checks the Hadamard-form
    residual against its scaled threshold; kind "lemma33" rebuilds the
    coupling block row by row from the characteristic-polynomial formula and
    compares relative to the direct form."""
    if kind not in ("lemma32", "lemma33"):
        raise SpecViolation(f"unknown identity suite {kind!r}")
    records = []
    offset = 0
    while len(records) < cases:
        seed = base_seed + len(records) + offset
        ctx = _suite_context(seed)
        if ctx is None:
            offset += 1
            if offset > 20 * cases:
                raise SpecViolation("identity suite: too many filtered cases")
            continue
        if kind == "lemma32":
            residual = hadamard_identity_residual(ctx)
            threshold = hadamard_identity_threshold(ctx)
        else:
            rebuilt = np.vstack([coupling_row(ctx, i)
                                 for i in range(ctx.coupling.shape[0])])
            scale = max(float(np.linalg.norm(ctx.coupling, 2)), 1e-300)
            residual = float(np.linalg.norm(rebuilt - ctx.coupling, 2)) / scale
            threshold = 1e-8
        records.append(_record(f"{kind}-{len(records):03d}", seed, residual, threshold))
    return records


def _suite_context(seed: int) -> OracleContext | None:
    """Build a case context, or None when the conditioning filter rejects it."""
    a, da, r = random_diagonalizable_case(seed)
    ctx = build_oracle_context(a, da, TopKMagnitude(r), NearestAssignment())
    if ctx.kprod > SUITE_KAPPA_CAP:
        return None
    sigma_r_min = float(np.min(np.abs(
        np.prod(ctx.part_tilde.lambda1[np.newaxis, :]
                - ctx.part.lambda2[:, np.newaxis], axis=1))))
    if sigma_r_min < SIGMA_R_FLOOR:
        return None
    return ctx


def run_dominance_suite(base_seed: int = 42, cases: int = 300) -> list[dict]:
    """measured distance <= per-eigenvalue bound <= uniform-gap bound, with
    the perturbation scaled so delta_lambda >= 10 ||dA||."""
    records = []
    for k in range(cases):
        seed = base_seed + k
        a, da, r = random_diagonalizable_case(seed)
        run = analyze(a, da, TopKMagnitude(r), NearestAssignment())
        for _ in range(5):
            if run.delta_lambda >= 10.0 * run.da_norms[0]:
                break
            run = run.perturb(run.da * 0.1)
        perj, dl = run.product_bound
        measured = run.measured_sin
        violation = max(measured - perj, perj - dl * (1.0 + 1e-12))
        records.append({**_record(f"dominance-{k:03d}", seed, violation, 0.0),
                        "measured": measured, "perj": perj, "dl": dl})
    return records


def _scaling_quantities(a, da, r: int) -> tuple[float, float, float]:
    run = analyze(a, da, TopKMagnitude(r), NearestAssignment())
    return (*run.product_bound, run.measured_sin)


def run_scaling_suite(base_seed: int = 42) -> list[dict]:
    """Simultaneous scaling of (A, dA) by 1e-3 and 1e3 must leave the product
    bound and the measured distance unchanged to 1e-10 relative."""
    scenarios = []
    a, facts = gen_example(TightR2(delta=0.1, eps=1e-4))
    scenarios.append(("tight-r2", a, facts.perturbation, 2))
    a2, da2, r2 = random_diagonalizable_case(base_seed, da_divisor=20.0)
    scenarios.append(("dense-seeded", a2, da2, r2))

    records = []
    for name, a_mat, da, r in scenarios:
        base = _scaling_quantities(a_mat, da, r)
        worst = 0.0
        for t in (1e-3, 1e3):
            scaled = _scaling_quantities(t * a_mat, t * da, r)
            for ref, got in zip(base, scaled):
                worst = max(worst, abs(got - ref) / abs(ref))
        records.append(_record(f"scaling-{name}", base_seed, worst, 1e-10))
    return records


def run_contour_suite(base_seed: int = 42) -> list[dict]:
    """Projector quadrature accuracy, geometric error contraction under node
    doubling (checked above the roundoff floor), and agreement of the
    residue- and quadrature-path coupling blocks."""
    records = []

    def projector_error(mat, ed, reference, radius: float, nodes: int) -> float:
        proj = contour_projector(mat, ed, Contour(center=1.0, radius=radius, nodes=nodes))
        return float(np.linalg.norm(proj - reference, 2))

    a, _ = gen_example(Example11(1e-4))
    ed = eig(a)
    part = partition(ed, TopKMagnitude(2))
    reference = part.x1 @ part.v1.conj().T
    errs = {n: projector_error(a, ed, reference, 0.3, n) for n in (256, 16, 32, 64)}
    records.append(_record("example11-circle-256", base_seed, errs[256], 1e-8))
    records.append(_record("example11-contract-16-32", base_seed,
                           errs[32], errs[16] / 10.0))
    records.append(_record("example11-contract-32-64", base_seed,
                           errs[64], errs[32] / 10.0))

    slow = np.diag([1.0, 0.0]).astype(np.complex128)  # its own side-1 projector
    ed_slow = eig(slow)
    slow_errs = {n: projector_error(slow, ed_slow, slow, 0.9, n) for n in (64, 128, 256)}
    records.append(_record("analytic-contract-64-128", base_seed,
                           slow_errs[128], slow_errs[64] / 10.0))
    records.append(_record("analytic-contract-128-256", base_seed,
                           slow_errs[256], slow_errs[128] / 10.0))

    a_rand, da_rand, r_rand = random_clustered_case(base_seed)
    ctx = build_oracle_context(a_rand, da_rand, TopKMagnitude(r_rand), NearestAssignment())
    res_path = residue_coupling_matrix(ctx)
    quad_path = contour_coupling_matrix(ctx, nodes=256)
    records.append(_record("residue-vs-quadrature", base_seed,
                           float(np.linalg.norm(res_path - quad_path, 2)),
                           QUAD_TOL))
    # the identity V2* X1t = gap_recip o (V2* dA X1t), against the cross-Gram
    # multiplied out directly
    cross_gram = ctx.part.v2.conj().T @ ctx.part_tilde.x1
    records.append(_record("residue-vs-hadamard", base_seed,
                           float(np.linalg.norm(res_path - cross_gram, 2)),
                           1e-12 * max(1.0, float(np.linalg.norm(cross_gram, 2)))))
    return records


SUITES = {
    "lemma32": lambda seed, cases: run_identity_suite("lemma32", seed, cases),
    "lemma33": lambda seed, cases: run_identity_suite("lemma33", seed, cases),
    "contour": lambda seed, cases: run_contour_suite(seed),
    "dominance": lambda seed, cases: run_dominance_suite(seed, cases),
    "scaling": lambda seed, cases: run_scaling_suite(seed),
}


def run_suite(name: str, seed: int = 42, cases: int | None = None) -> list[dict]:
    if name not in SUITES:
        raise SpecViolation(f"unknown suite {name!r}; choose from {sorted(SUITES)}")
    defaults = {"lemma32": 100, "lemma33": 100, "dominance": 300}
    n_cases = cases if cases is not None else defaults.get(name, 0)
    return SUITES[name](seed, n_cases)
