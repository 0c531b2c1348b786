"""Dense complex matrix primitives: factorizations, norms, eigendecompositions.

All operations work on 2-D complex128 arrays, are pure functions of their
inputs, and carry explicit sign/phase conventions so repeated runs produce
bit-identical results.  Factorizations are LAPACK-backed; the conventions,
orderings and validity checks on top of them are what this module owns.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import (
    ConvergenceFailure,
    InvalidMatrix,
    NotDiagonalizable,
    RankDeficient,
    ShapeMismatch,
    Singular,
)


def as_matrix(obj, name: str = "matrix") -> np.ndarray:
    """Coerce to a finite 2-D complex128 array; reject NaN/Inf entries."""
    a = np.asarray(obj, dtype=np.complex128)
    if a.ndim != 2 or a.shape[0] < 1 or a.shape[1] < 1:
        raise ShapeMismatch(f"{name}: expected a 2-D matrix, got shape {a.shape}")
    if not np.all(np.isfinite(a)):
        raise InvalidMatrix(f"{name}: non-finite entries are not allowed")
    return a


def _square(a: np.ndarray, name: str) -> np.ndarray:
    a = as_matrix(a, name)
    if a.shape[0] != a.shape[1]:
        raise ShapeMismatch(f"{name}: expected square, got {a.shape}")
    return a


@dataclass(frozen=True)
class QRFactors:
    """Thin QR with the diagonal of R rotated to be real nonnegative.

    ``kappa`` is kappa2 of the factored matrix, the same value ``cond2``
    returns for it.
    """

    q: np.ndarray
    r: np.ndarray
    kappa: float


@dataclass(frozen=True)
class EigenDecomposition:
    """Right eigenvectors (unit columns), eigenvalues, and left dual basis.

    ``v`` is (X^{-1})^* so that v.conj().T @ x == I; ``lam`` is sorted by
    descending magnitude with ties broken by descending real part, then
    descending imaginary part.  Each eigenvector's largest-magnitude entry
    is rotated to be real positive.  ``a_norm`` is ||A||_2 of the decomposed
    matrix, measured for the residual check.
    """

    x: np.ndarray
    lam: np.ndarray
    v: np.ndarray
    kappa_x: float
    a_norm: float

    @property
    def n(self) -> int:
        return self.lam.shape[0]


def singular_values(z) -> np.ndarray:
    z = as_matrix(z, "Z")
    try:
        return np.linalg.svd(z, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc


def norms(z) -> tuple[float, float]:
    """(spectral norm, Frobenius norm)."""
    z = as_matrix(z, "Z")
    return float(singular_values(z)[0]), float(np.linalg.norm(z, "fro"))


def cond2(z) -> float:
    """sigma_max / sigma_min; raises Singular on exactly rank-deficient input."""
    s = singular_values(z)
    if s[-1] == 0.0:
        raise Singular("cond2: smallest singular value is zero")
    return float(s[0] / s[-1])


# sigma_min/sigma_max at or below this: the basis handed to qr_decompose is
# rank deficient
RANK_TOL = 1e-13


def qr_decompose(z) -> QRFactors:
    """Thin QR of a full-column-rank matrix with a fixed phase convention.

    Raises RankDeficient when sigma_min(Z) <= RANK_TOL * sigma_max(Z), which
    signals that the caller's subspace basis is degenerate.
    """
    z = as_matrix(z, "Z")
    if z.shape[0] < z.shape[1]:
        raise ShapeMismatch(f"qr_decompose: need rows >= cols, got {z.shape}")
    s = singular_values(z)
    if s[0] == 0.0 or s[-1] <= RANK_TOL * s[0]:
        raise RankDeficient(
            f"qr_decompose: sigma_min/sigma_max = {0.0 if s[0] == 0 else s[-1] / s[0]:.3e}"
        )
    q, r = np.linalg.qr(z, mode="reduced")
    d = np.diagonal(r).copy()
    absd = np.abs(d)
    # full rank was just checked, so no diagonal entry is zero
    phase = d / absd
    q = q * phase[np.newaxis, :]
    r = r * np.conj(phase)[:, np.newaxis]
    # exact real nonnegative diagonal regardless of rounding in the rotation
    r[np.arange(r.shape[0]), np.arange(r.shape[0])] = absd
    return QRFactors(q=q, r=r, kappa=float(s[0] / s[-1]))


# Unused since sep_frobenius stopped forming the dense Kronecker operator;
# the name stays because the benchmark's tracer (bench/tracer.py) wraps it.
kron = np.kron

# self-check on eig's own arithmetic: the residual relative to ||A||_2 and the
# dual-basis defect relative to max(kappa2(X), 1)
EIG_TOL = 1e-10
# kappa2(X) beyond this: the input is taken as not diagonalizable (Jordan-like)
KAPPA_CAP = 1e13


def eig(a) -> EigenDecomposition:
    """Eigendecomposition with deterministic ordering and phase convention.

    Raises NotDiagonalizable when kappa2(X) exceeds ``KAPPA_CAP`` and
    ConvergenceFailure when the residual checks fail.
    """
    a = _square(a, "A")
    n = a.shape[0]
    try:
        w, x = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eig did not converge: {exc}") from exc
    order = np.lexsort((-w.imag, -w.real, -np.abs(w)))
    w = w[order]
    x = x[:, order]
    x = x / np.linalg.norm(x, axis=0)[np.newaxis, :]
    piv = np.argmax(np.abs(x), axis=0)
    lead = x[piv, np.arange(n)]
    x = x * (np.conj(lead) / np.abs(lead))[np.newaxis, :]

    s = np.linalg.svd(x, compute_uv=False)
    if s[-1] == 0.0:
        raise NotDiagonalizable("eig: eigenvector basis is exactly singular")
    kappa = float(s[0] / s[-1])
    if kappa > KAPPA_CAP:
        raise NotDiagonalizable(f"eig: kappa2(X) = {kappa:.3e} exceeds cap {KAPPA_CAP:.1e}")

    v = np.linalg.inv(x).conj().T
    a_norm = float(np.linalg.norm(a, 2))
    resid = float(np.linalg.norm(a @ x - x * w[np.newaxis, :], 2))
    if a_norm > 0 and resid > EIG_TOL * a_norm:
        raise ConvergenceFailure(f"eig: residual {resid:.3e} exceeds {EIG_TOL:.1e}*||A||")
    dual = float(np.linalg.norm(v.conj().T @ x - np.eye(n), 2))
    if dual > EIG_TOL * max(kappa, 1.0):
        raise ConvergenceFailure(f"eig: dual-basis defect {dual:.3e} too large")
    return EigenDecomposition(x=x, lam=w, v=v, kappa_x=kappa, a_norm=a_norm)
