"""Dense complex matrix primitives: factorizations, norms, eigendecompositions.

All operations work on 2-D complex128 arrays, are pure functions of their
inputs, and carry explicit sign/phase conventions so repeated runs produce
bit-identical results.  Factorizations are LAPACK-backed; the conventions,
orderings and validity checks on top of them are what this module owns.
"""

from __future__ import annotations

import functools
import math
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
    is rotated to be real positive.  ``a`` is the decomposed matrix.

    ``a_norm`` (||A||_2) and ``kappa_x`` (kappa2(X)) are measured by an SVD on
    first access and kept: ``eig``'s own checks settle for cheap bounds on
    them, so a caller that reads neither pays for neither.
    """

    x: np.ndarray
    lam: np.ndarray
    v: np.ndarray
    a: np.ndarray

    @property
    def n(self) -> int:
        return self.lam.shape[0]

    @functools.cached_property
    def a_norm(self) -> float:
        return float(np.linalg.norm(self.a, 2))

    @functools.cached_property
    def kappa_x(self) -> float:
        return _kappa2(self.x)


def singular_values(z) -> np.ndarray:
    z = as_matrix(z, "Z")
    try:
        return np.linalg.svd(z, compute_uv=False)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"SVD did not converge: {exc}") from exc


# a Frobenius norm computed within [2**-200, 2**200] needs no scale guard
_FROB_DIRECT_RANGE = (math.ldexp(1.0, -200), math.ldexp(1.0, 200))


def norms(z) -> tuple[float, float]:
    """(spectral norm, Frobenius norm); the Frobenius norm's sum of squares
    is taken ``_into_safe_range``, where it neither over- nor underflows.

    The largest real or imaginary part p of Z satisfies p <= ||Z||_F <=
    sqrt(2 numel) p, so a directly computed norm in ``_FROB_DIRECT_RANGE``
    puts p within 2**±``_SAFE_EXPONENT``: the guard's exponent would be 0,
    and that norm is already the guarded one.
    """
    z = as_matrix(z, "Z")
    with np.errstate(over="ignore"):
        frob = float(np.linalg.norm(z, "fro"))
    if not _FROB_DIRECT_RANGE[0] <= frob <= _FROB_DIRECT_RANGE[1]:
        exponent, (scaled,) = _into_safe_range(z)
        frob = _times_power_of_two(float(np.linalg.norm(scaled, "fro")), exponent)
    return float(singular_values(z)[0]), frob


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


def _times_power_of_two(x, e: int):
    """x * 2**e in two steps, so that neither factor over- or underflows; exact
    while the product does not."""
    return x * math.ldexp(1.0, e // 2) * math.ldexp(1.0, e - e // 2)


# a largest real or imaginary part within 2**±_SAFE_EXPONENT keeps sums of
# squares, spectral widths and Ritz values 1/sep**2 far from over- and underflow
_SAFE_EXPONENT = 256


def _into_safe_range(*arrays) -> tuple[int, tuple]:
    """(e, float64 or complex128 ``arrays`` times 2**-e), exact.  e is 0 while the
    largest real or imaginary part lies within 2**±``_SAFE_EXPONENT``, and
    otherwise its power-of-two exponent, which scales it into [1/2, 1).  The
    parts are read, not the moduli: the modulus of 1.5e308+1.5e308j
    overflows."""
    part = max(float(np.abs(np.ascontiguousarray(a).view(np.float64)).max()) for a in arrays)
    exponent = math.frexp(part)[1]
    if abs(exponent) <= _SAFE_EXPONENT:
        return 0, arrays
    return exponent, tuple(_times_power_of_two(a, -exponent) for a in arrays)


def spectral_order(w: np.ndarray) -> np.ndarray:
    """Indices sorting ``w`` by descending magnitude, ties broken by descending
    real part, then descending imaginary part: the order of ``eig``."""
    return np.lexsort((-w.imag, -w.real, -np.abs(w)))


# self-check on eig's own arithmetic: the residual relative to ||A||_2 and the
# dual-basis defect relative to max(kappa2(X), 1)
EIG_TOL = 1e-10
# kappa2(X) beyond this: the input is taken as not diagonalizable (Jordan-like)
KAPPA_CAP = 1e13

# A cheap test stays this far inside its limit.  A rounded ||M||_F, |lambda_1|
# or ||A||_F/sqrt(n) is off by a few n*eps relative, so a cheap pass never
# accepts what the exact, rounded 2-norm would reject.
_ROUNDING_ROOM = 1.0 - 1e-8


def _norm2_exceeds(m: np.ndarray, limit: float) -> float | None:
    """||m||_2 when it exceeds ``limit``, else None.

    ||m||_2 <= ||m||_F, so the SVD runs only when the Frobenius norm does not
    already clear the limit; a returned value is always the exact 2-norm.
    """
    with np.errstate(all="ignore"):
        if np.linalg.norm(m) <= limit * _ROUNDING_ROOM:
            return None
    norm2 = float(np.linalg.norm(m, 2))
    return norm2 if norm2 > limit else None


def _kappa2(x: np.ndarray) -> float:
    s = np.linalg.svd(x, compute_uv=False)
    if s[-1] == 0.0:
        raise NotDiagonalizable("eig: eigenvector basis is exactly singular")
    return float(s[0] / s[-1])


def _checked_inverse(x: np.ndarray) -> np.ndarray:
    """X^{-1} of a unit-column basis X; raises NotDiagonalizable when
    kappa2(X) exceeds ``KAPPA_CAP``.

    kappa2(X) <= ||X||_F ||X^{-1}||_F = sqrt(n) ||X^{-1}||_F.  The computed
    inverse and sigma_min(X) are off by O(n kappa eps) relative, so the bound
    is trusted only 1000x under the cap; otherwise (and when inv fails or
    overflows) kappa2(X) is measured by the SVD.
    """
    with np.errstate(all="ignore"):
        try:
            x_inv = np.linalg.inv(x)
            if math.sqrt(x.shape[0]) * np.linalg.norm(x_inv) <= 1e-3 * KAPPA_CAP:
                return x_inv
        except np.linalg.LinAlgError:
            pass
    kappa = _kappa2(x)
    if kappa > KAPPA_CAP:
        raise NotDiagonalizable(f"eig: kappa2(X) = {kappa:.3e} exceeds cap {KAPPA_CAP:.1e}")
    return np.linalg.inv(x)


def eig(a) -> EigenDecomposition:
    """Eigendecomposition with deterministic ordering and phase convention.

    Raises NotDiagonalizable when kappa2(X) exceeds ``KAPPA_CAP`` and
    ConvergenceFailure when the residual checks fail.  Each check first
    tries a bound that costs no SVD (see ``_norm2_exceeds``); the exact
    norm is measured only when the bound cannot decide, so every decision
    and message is the one the exact norms give.
    """
    a = _square(a, "A")
    n = a.shape[0]
    try:
        w, x = np.linalg.eig(a)
    except np.linalg.LinAlgError as exc:
        raise ConvergenceFailure(f"eig did not converge: {exc}") from exc
    order = spectral_order(w)
    w = w[order]
    x = x[:, order]
    x = x / np.linalg.norm(x, axis=0)[np.newaxis, :]
    piv = np.argmax(np.abs(x), axis=0)
    lead = x[piv, np.arange(n)]
    x = x * (np.conj(lead) / np.abs(lead))[np.newaxis, :]

    ed = EigenDecomposition(x=x, lam=w, v=_checked_inverse(x).conj().T, a=a)
    # ||A||_2 >= max(|lambda_1|, ||A||_F / sqrt(n)); no floor if that overflowed
    with np.errstate(all="ignore"):
        a_floor = max(abs(w[0]), np.linalg.norm(a) / math.sqrt(n)) * _ROUNDING_ROOM
    if not np.isfinite(a_floor):
        a_floor = 0.0
    resid = _norm2_exceeds(a @ x - x * w[np.newaxis, :], EIG_TOL * a_floor)
    if resid is not None and ed.a_norm > 0 and resid > EIG_TOL * ed.a_norm:
        raise ConvergenceFailure(f"eig: residual {resid:.3e} exceeds {EIG_TOL:.1e}*||A||")
    dual = _norm2_exceeds(ed.v.conj().T @ x - np.eye(n), EIG_TOL)
    if dual is not None and dual > EIG_TOL * max(ed.kappa_x, 1.0):
        raise ConvergenceFailure(f"eig: dual-basis defect {dual:.3e} too large")
    return ed
