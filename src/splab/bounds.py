"""Perturbation bounds for invariant subspaces and their assumption checks.

Two upper bounds on the subspace distance are computed side by side:

* the classical separation-derived tangent bound
  2 k2(X1) k2(V2) ||dA|| / [delta0 - 2 k2(X1) k2(V2) ||dA||]_+ , and
* the condition-number-free product bound
  (k2(V2) ||dA||_F / a) * prod_j (1 + a / gap_j), a = ||A|| + ||dA|| + rho(L2),
  in both its per-eigenvalue form and its coarser uniform-gap form.

``full_report`` orchestrates the whole pipeline and records every quantity a
reader needs to audit either bound.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .angles import sin_theta_norm
from .config import DEFAULT_TOL, Tolerances
from .errors import GapViolated, ShapeMismatch, SizeCap
from .linalg import as_matrix, eig, kron, norms, singular_values
from .partition import (
    MatchStrategy,
    SameSelector,
    Selector,
    SpectralPartition,
    gap_delta0,
    gap_delta1,
    match_partition,
    partition,
)


@dataclass(frozen=True)
class GapReport:
    delta0: float
    delta1: float
    delta_lambda: float
    t0_star: complex


@dataclass(frozen=True)
class BoundReport:
    """Everything needed to audit both bounds for one (A, dA, selector) run."""

    gap: GapReport
    a: float
    kappa_x1: float
    kappa_v2: float
    da_spec: float
    da_frob: float
    classical_value: float
    classical_valid: bool
    new_value_perj: float
    new_value_dl: float
    sep_frob: float
    sep_lower: float
    stewart_condition_ok: bool
    measured_sin: float
    gap_ok: bool
    dominance_ok: bool
    match_strategy: str


def _kept_gaps(part: SpectralPartition, part_tilde: SpectralPartition) -> np.ndarray:
    """Distance from each perturbed kept eigenvalue to the complement set."""
    return np.min(np.abs(part_tilde.lambda1[:, np.newaxis]
                         - part.lambda2[np.newaxis, :]), axis=1)


def _product_bound(gaps: np.ndarray, delta_lambda: float, kappa_v2: float,
                   da_frob: float, a: float) -> tuple[float, float]:
    """Product bound from its ingredients; ``delta_lambda`` is min(gaps) > 0."""
    if da_frob == 0.0:
        return 0.0, 0.0
    lead = kappa_v2 * da_frob / a
    perj = lead * float(np.prod(1.0 + a / gaps))
    dl = lead * (1.0 + a / delta_lambda) ** gaps.shape[0]
    return float(perj), float(dl)


def new_bound(a_mat, da, part: SpectralPartition,
              part_tilde: SpectralPartition) -> tuple[float, float]:
    """Product bound in per-eigenvalue and uniform-gap form.

    Returns (perj, dl) with perj <= dl; raises GapViolated when the
    post-perturbation gap is zero.
    """
    a_mat = as_matrix(a_mat, "A")
    da = as_matrix(da, "dA")
    if part.r != part_tilde.r:
        raise ShapeMismatch("new_bound: partitions have different block sizes")
    gaps = _kept_gaps(part, part_tilde)
    delta_lambda = float(np.min(gaps))
    if delta_lambda == 0.0:
        raise GapViolated("new_bound: post-perturbation gap is zero")
    da_spec, da_frob = norms(da)
    a = float(np.linalg.norm(a_mat, 2)) + da_spec + float(np.max(np.abs(part.lambda2)))
    return _product_bound(gaps, delta_lambda, part.qr_v2.kappa, da_frob, a)


def classical_bound(part: SpectralPartition, da_spec: float,
                    delta0: float) -> tuple[float, bool]:
    """Separation-derived tangent bound with a positive-part denominator.

    Returns (value, valid); value is +inf and valid is False when the
    denominator's positive part vanishes (the bound is vacuous).
    """
    numer = 2.0 * part.qr_x1.kappa * part.qr_v2.kappa * float(da_spec)
    if delta0 > numer:
        return numer / (delta0 - numer), True
    return math.inf, False


def sep_frobenius(l1, l2, tol: Tolerances = DEFAULT_TOL) -> float:
    """Smallest singular value of T -> T L1 - L2 T on vectorized T.

    This is the Frobenius-geometry surrogate for the spectral-norm
    separation; the exact spectral-norm version has no finite closed form.
    """
    l1 = as_matrix(l1, "L1")
    l2 = as_matrix(l2, "L2")
    if l1.shape[0] != l1.shape[1] or l2.shape[0] != l2.shape[1]:
        raise ShapeMismatch("sep_frobenius: inputs must be square")
    r, m = l1.shape[0], l2.shape[0]
    if r * m > tol.size_cap:
        raise SizeCap(f"sep_frobenius: r*(n-r) = {r * m} exceeds {tol.size_cap}")
    op = kron(l1.T, np.eye(m, dtype=np.complex128)) - kron(np.eye(r, dtype=np.complex128), l2)
    return float(singular_values(op)[-1])


def sep_lower_bound(delta0: float, kappa_rx1: float, kappa_rv2: float) -> float:
    """Separation lower bound delta0 / (k2(R_X1) k2(R_V2)); note that the R
    factor of a QR decomposition has the same condition number as its matrix."""
    return float(delta0) / (float(kappa_rx1) * float(kappa_rv2))


def stewart_condition(da_spec: float, a_spec: float, sep_value: float) -> bool:
    """Smallness condition under which the classical tangent bound applies."""
    margin = max(float(sep_value) - 2.0 * float(da_spec), 0.0)
    return float(da_spec) * (float(a_spec) + float(da_spec)) < 0.25 * margin * margin


def full_report(a_mat, da, selector: Selector,
                match: MatchStrategy | None = None,
                tol: Tolerances = DEFAULT_TOL) -> BoundReport:
    """Run the whole pipeline on (A, dA, selector) and assemble a report.

    A zero post-perturbation gap does not raise here: the bounds become +inf
    and ``gap_ok`` is cleared, so callers can still serialize the report.
    """
    a_mat = as_matrix(a_mat, "A")
    da = as_matrix(da, "dA")
    if a_mat.shape != da.shape:
        raise ShapeMismatch(f"full_report: A is {a_mat.shape} but dA is {da.shape}")
    if match is None:
        match = SameSelector(selector)

    ed = eig(a_mat, tol)
    ed_t = eig(a_mat + da, tol)
    part = partition(ed, selector, tol)
    part_t = match_partition(ed_t, part, match, tol, check_gap=False)
    if part.r != part_t.r:
        raise ShapeMismatch("full_report: partitions have different block sizes")

    delta1 = gap_delta1(part.lambda1, part.lambda2)
    delta0, t0_star = gap_delta0(part.lambda1, part.lambda2, tol)
    gaps = _kept_gaps(part, part_t)
    delta_lambda = float(np.min(gaps))
    gap_ok = delta_lambda > 0.0

    da_spec, da_frob = norms(da)
    a_spec = float(np.linalg.norm(a_mat, 2))
    a = a_spec + da_spec + float(np.max(np.abs(part.lambda2)))
    kappa_x1 = part.qr_x1.kappa
    kappa_v2 = part.qr_v2.kappa

    classical_value, classical_valid = classical_bound(part, da_spec, delta0)
    if gap_ok:
        perj, dl = _product_bound(gaps, delta_lambda, kappa_v2, da_frob, a)
    else:
        perj, dl = math.inf, math.inf

    l1_block = part.qr_x1.q.conj().T @ a_mat @ part.qr_x1.q
    l2_block = part.qr_v2.q.conj().T @ a_mat @ part.qr_v2.q
    sep_frob = sep_frobenius(l1_block, l2_block, tol)
    sep_low = sep_lower_bound(delta0, kappa_x1, kappa_v2)
    stewart_ok = stewart_condition(da_spec, a_spec, sep_frob)

    measured = sin_theta_norm(part.qr_x1.q, part_t.qr_x1.q, tol)
    dominance_ok = measured <= perj

    return BoundReport(
        gap=GapReport(delta0=delta0, delta1=delta1,
                      delta_lambda=delta_lambda, t0_star=t0_star),
        a=a,
        kappa_x1=kappa_x1,
        kappa_v2=kappa_v2,
        da_spec=da_spec,
        da_frob=da_frob,
        classical_value=classical_value,
        classical_valid=classical_valid,
        new_value_perj=perj,
        new_value_dl=dl,
        sep_frob=sep_frob,
        sep_lower=sep_low,
        stewart_condition_ok=stewart_ok,
        measured_sin=measured,
        gap_ok=gap_ok,
        dominance_ok=dominance_ok,
        match_strategy="same-selector" if isinstance(match, SameSelector)
        else "nearest-assignment",
    )
