"""Perturbation bounds for invariant subspaces and their assumption checks.

Two upper bounds on the subspace distance are computed side by side:

* the classical separation-derived tangent bound
  2 k2(X1) k2(V2) ||dA|| / [delta0 - 2 k2(X1) k2(V2) ||dA||]_+ , and
* the condition-number-free product bound
  (k2(V2) ||dA||_F / a) * prod_j (1 + a / gap_j), a = ||A|| + ||dA|| + rho(L2),
  in both its per-eigenvalue form and its coarser uniform-gap form.

``analyze`` runs the pipeline eig -> partition -> match once and holds every
quantity the bounds and the measured distance share; ``full_report`` reads
it and records every quantity a reader needs to audit either bound.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, replace

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrsyl

from .angles import sin_theta_norm
from .config import DEFAULT_TOL, Tolerances
from .errors import GapViolated, ShapeMismatch
from .linalg import _square, as_matrix, eig, norms
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
from .rng import SplitMix64


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


@dataclass(frozen=True)
class Analysis:
    """One pass of eig -> partition -> match over (A, dA, selector).

    Holds A and its partition, dA and the matched partition of A + dA, the
    match strategy, and ||A||_2 as measured by ``eig``.  Each derived
    quantity is computed on first access and kept.
    """

    a: np.ndarray
    da: np.ndarray
    part: SpectralPartition
    part_tilde: SpectralPartition
    match: MatchStrategy
    a_norm: float
    tol: Tolerances

    def perturb(self, da) -> Analysis:
        """The analysis of A + ``da``: reruns only eig(A + dA) and the match."""
        da = as_matrix(da, "dA")
        if self.a.shape != da.shape:
            raise ShapeMismatch(f"analyze: A is {self.a.shape} but dA is {da.shape}")
        part_t = match_partition(eig(self.a + da, self.tol), self.part, self.match, self.tol)
        if part_t.r != self.part.r:
            raise ShapeMismatch(f"match(A+dA): block sizes differ (A+dA keeps {part_t.r}, "
                                f"A keeps {self.part.r}); try --match nearest")
        return replace(self, da=da, part_tilde=part_t)

    @functools.cached_property
    def gaps(self) -> np.ndarray:
        return _kept_gaps(self.part, self.part_tilde)

    @functools.cached_property
    def delta_lambda(self) -> float:
        return float(np.min(self.gaps))

    @functools.cached_property
    def da_norms(self) -> tuple[float, float]:
        """(||dA||_2, ||dA||_F)."""
        return norms(self.da)

    @functools.cached_property
    def a_scale(self) -> float:
        """a = ||A||_2 + ||dA||_2 + rho(L2) of the product bound."""
        return self.a_norm + self.da_norms[0] + float(np.max(np.abs(self.part.lambda2)))

    @functools.cached_property
    def product_bound(self) -> tuple[float, float]:
        """(perj, dl); raises GapViolated when the post-perturbation gap is zero."""
        if self.delta_lambda == 0.0:
            raise GapViolated("analyze: post-perturbation gap is zero")
        return _product_bound(self.gaps, self.delta_lambda, self.part.qr_v2.kappa,
                              self.da_norms[1], self.a_scale)

    @functools.cached_property
    def measured_sin(self) -> float:
        return sin_theta_norm(self.part.qr_x1.q, self.part_tilde.qr_x1.q, self.tol)


def analyze(a_mat, da, selector: Selector, match: MatchStrategy | None = None,
            tol: Tolerances = DEFAULT_TOL) -> Analysis:
    """eig(A) and its partition, then ``perturb`` of the dA = 0 analysis (whose
    matched partition is A's own) by ``da``.  ``match`` defaults to
    reapplying ``selector`` to the perturbed spectrum."""
    a_mat = as_matrix(a_mat, "A")
    ed = eig(a_mat, tol)
    part = partition(ed, selector, tol)
    return Analysis(a=a_mat, da=np.zeros_like(a_mat), part=part, part_tilde=part,
                    match=match or SameSelector(selector), a_norm=ed.a_norm,
                    tol=tol).perturb(da)


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


SEP_MAX_ITER = 200  # Lanczos steps before sep_frobenius gives up and returns nan
_SEP_SEED = 0x5EB  # fixes the Lanczos start and restart vectors


def _sep_vectors(size: int):
    """Fixed pseudo-random complex vectors of length ``size``, real and
    imaginary parts uniform in (-1/2, 1/2): the first starts Lanczos, the
    rest restart it."""
    gen = SplitMix64(_SEP_SEED)
    while True:
        parts = np.array([gen.uniform() - 0.5 for _ in range(2 * size)])
        yield parts[0::2] + 1j * parts[1::2]


def _orthogonalize(w, basis):
    w = w - basis.T @ (basis.conj() @ w)
    return w - basis.T @ (basis.conj() @ w)  # second Gram-Schmidt pass


def sep_frobenius(l1, l2) -> float:
    """Smallest singular value of S: T -> T L1 - L2 T on vectorized T.

    This is the Frobenius-geometry surrogate for the spectral-norm
    separation; the exact spectral-norm version has no finite closed form.
    S has the singular values of T -> T R1 - R2 T for the complex Schur
    factors R1, R2 of L1, L2, so a product with S^-* S^-1 is two triangular
    Sylvester solves (Bartels-Stewart).  Lanczos on S^-* S^-1 starts from a
    fixed pseudo-random vector, restarts orthogonally to its basis when the
    Krylov space turns invariant, and stops once the Ritz value of the
    current Krylov sequence rises by at most 1e-15 relative.  Returns
    exactly 0.0 when the computed Schur diagonals of L1 and L2 share a
    value, and nan when ``SEP_MAX_ITER`` steps do not converge.
    """
    r1 = scipy.linalg.schur(_square(l1, "L1"), output="complex")[0]
    r2 = scipy.linalg.schur(_square(l2, "L2"), output="complex")[0]
    if np.any(np.diagonal(r2)[:, np.newaxis] == np.diagonal(r1)[np.newaxis, :]):
        return 0.0
    m, r = r2.shape[0], r1.shape[0]
    steps = min(m * r, SEP_MAX_ITER)
    vectors = _sep_vectors(m * r)
    w = next(vectors)
    basis = (w / np.linalg.norm(w))[np.newaxis, :]
    ritz_matrix = np.zeros((steps, steps), dtype=np.complex128)  # lower triangle used
    start, lam = 0, 0.0  # first basis index of the current Krylov sequence, its Ritz value
    for k in range(steps):
        # info = 1 (LAPACK perturbed near-common eigenvalues) is accepted on
        # purpose: the solve is then approximate, and sep is of rounding size
        y, scale, _ = ztrsyl(r2, r1, basis[k].reshape(m, r), isgn=-1)
        w, scale2, _ = ztrsyl(r2, r1, y / scale, trana="C", tranb="C", isgn=-1)
        w = w.reshape(-1) / scale2
        h = basis.conj() @ w
        ritz_matrix[k, : k + 1] = h.conj()
        w = _orthogonalize(w, basis)
        ritz = float(np.linalg.eigvalsh(ritz_matrix[start : k + 1, start : k + 1])[-1])
        if ritz - lam <= 1e-15 * ritz or k + 1 == m * r:
            return 1.0 / math.sqrt(np.linalg.eigvalsh(ritz_matrix[: k + 1, : k + 1])[-1])
        b = np.linalg.norm(w)
        if b <= 1e-15 * ritz:  # invariant Krylov space: restart orthogonally to it
            w = _orthogonalize(next(vectors), basis)
            b = np.linalg.norm(w)
            start, ritz = k + 1, 0.0
        lam = ritz
        basis = np.vstack([basis, w / b])
    return math.nan


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
    run = analyze(a_mat, da, selector, match, tol)
    part = run.part
    delta1 = gap_delta1(part.lambda1, part.lambda2)
    delta0, t0_star = gap_delta0(part.lambda1, part.lambda2, tol)
    gap_ok = run.delta_lambda > 0.0
    da_spec, da_frob = run.da_norms

    classical_value, classical_valid = classical_bound(part, da_spec, delta0)
    perj, dl = run.product_bound if gap_ok else (math.inf, math.inf)

    l1_block = part.qr_x1.q.conj().T @ run.a @ part.qr_x1.q
    l2_block = part.qr_v2.q.conj().T @ run.a @ part.qr_v2.q
    sep_frob = sep_frobenius(l1_block, l2_block)
    measured = run.measured_sin
    return BoundReport(
        gap=GapReport(delta0=delta0, delta1=delta1,
                      delta_lambda=run.delta_lambda, t0_star=t0_star),
        a=run.a_scale,
        kappa_x1=part.qr_x1.kappa,
        kappa_v2=part.qr_v2.kappa,
        da_spec=da_spec,
        da_frob=da_frob,
        classical_value=classical_value,
        classical_valid=classical_valid,
        new_value_perj=perj,
        new_value_dl=dl,
        sep_frob=sep_frob,
        sep_lower=sep_lower_bound(delta0, part.qr_x1.kappa, part.qr_v2.kappa),
        stewart_condition_ok=stewart_condition(da_spec, run.a_norm, sep_frob),
        measured_sin=measured,
        gap_ok=gap_ok,
        dominance_ok=measured <= perj,
        match_strategy="same-selector" if isinstance(run.match, SameSelector)
        else "nearest-assignment",
    )
