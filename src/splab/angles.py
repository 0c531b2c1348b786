"""Principal angles and sin/tan-theta distances between subspaces.

Cosines come from the singular values of Q1* Q2; sines come from the
orthogonal-complement product Q1perp* Q2, which is the numerically accurate
route for small angles (sqrt(1 - cos^2) loses half the significant digits
there).  The two routes are cross-checked against each other.

Every Q factor is checked for orthonormality once, on entry.  That check and
the complement's coupling check are certified cheap-first: each accepts on
the Frobenius norm of its defect, which bounds the 2-norm from above, and
measures the exact 2-norm (for the message) only when that does not decide.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import CrossCheckFailure, NotOrthonormal, ShapeMismatch
from .linalg import _norm2_exceeds, as_matrix, singular_values


@dataclass(frozen=True)
class SubspaceDistance:
    """Principal-angle summary between two r-dimensional subspaces.

    ``cosines`` are sorted nonincreasing in [0, 1]; ``sines`` are aligned
    index-by-index with the cosines (so they are nondecreasing).
    ``tan_norm`` is +inf when some cosine is zero.
    """

    cosines: np.ndarray
    sines: np.ndarray
    sin_norm: float
    tan_norm: float


# self-checks on this module's own arithmetic
ORTH_TOL = 1e-12   # orthonormality defect of a Q factor, scaled by its size
CROSS_TOL = 1e-10  # agreement of the equivalent sin-theta routes


def _check_orthonormal(q: np.ndarray, name: str) -> np.ndarray:
    q = as_matrix(q, name)
    if q.shape[0] < q.shape[1]:
        raise ShapeMismatch(f"{name}: more columns than rows, {q.shape}")
    defect = _norm2_exceeds(q.conj().T @ q - np.eye(q.shape[1]), ORTH_TOL * q.shape[1])
    if defect is not None:
        raise NotOrthonormal(f"{name}: orthonormality defect {defect:.3e}")
    return q


def orth_complement(q) -> np.ndarray:
    """Orthonormal basis of the complement; [Q, Qperp] is unitary."""
    q = _check_orthonormal(q, "Q")
    if q.shape[1] >= q.shape[0]:
        raise ShapeMismatch(f"orth_complement: no complement for shape {q.shape}")
    return _complement(q)


def _complement(q: np.ndarray) -> np.ndarray:
    """``orth_complement`` of an already checked Q with fewer columns than rows."""
    n, r = q.shape
    full, _ = np.linalg.qr(q, mode="complete")
    comp = full[:, r:]
    defect = _norm2_exceeds(q.conj().T @ comp, ORTH_TOL * n)
    if defect is not None:
        raise NotOrthonormal(f"orth_complement: residual coupling {defect:.3e}")
    return comp


def _checked_pair(q1, q2, caller: str) -> tuple[np.ndarray, np.ndarray]:
    q1 = _check_orthonormal(q1, "Q1")
    q2 = _check_orthonormal(q2, "Q2")
    if q1.shape != q2.shape:
        raise ShapeMismatch(f"{caller}: {q1.shape} vs {q2.shape}")
    return q1, q2


def _angles(q1: np.ndarray, q2: np.ndarray) -> SubspaceDistance:
    """Principal angles of a checked pair."""
    n, r = q1.shape
    cosines = np.clip(singular_values(q1.conj().T @ q2), 0.0, 1.0)
    comp_sv = singular_values(_complement(q1).conj().T @ q2) if r < n \
        else np.zeros(0)
    sines = np.zeros(r)
    # largest sines pair with the smallest cosines
    sines[r - comp_sv.shape[0]:] = np.sort(np.clip(comp_sv, 0.0, 1.0))
    sin_norm = float(sines[-1]) if r else 0.0
    with np.errstate(divide="ignore"):
        tans = np.where(cosines > 0.0, sines / np.where(cosines > 0.0, cosines, 1.0), np.inf)
    tan_norm = float(np.max(tans)) if r else 0.0
    return SubspaceDistance(cosines=cosines, sines=sines, sin_norm=sin_norm,
                            tan_norm=tan_norm)


def principal_angles(q1, q2) -> SubspaceDistance:
    """Principal angles between span(Q1) and span(Q2); inputs orthonormal."""
    q1, q2 = _checked_pair(q1, q2, "principal_angles")
    return _angles(q1, q2)


def sin_theta_norm(q1, q2) -> float:
    """Largest principal-angle sine, cross-checked two ways.

    The returned value is the max sine from the principal angles, that is
    ||Q1perp* Q2|| clipped to [0, 1].  It is compared against the symmetric ||Q2perp* Q1|| and (in
    squared form, which avoids the 1/sin error amplification at tiny angles)
    against 1 - sigma_min(Q1* Q2)^2.  Disagreement beyond ``CROSS_TOL``
    signals orthonormality loss upstream.  Q1 and Q2 are checked for
    orthonormality once, on entry; their complements are built without
    checking them again.
    """
    q1, q2 = _checked_pair(q1, q2, "sin_theta_norm")
    n, r = q1.shape
    dist = _angles(q1, q2)
    value = dist.sin_norm
    sym = float(singular_values(_complement(q2).conj().T @ q1)[0]) if r < n \
        else 0.0
    smin = float(dist.cosines[-1])
    sq_alt = 1.0 - smin * smin

    if abs(value - sym) > CROSS_TOL:
        raise CrossCheckFailure(
            f"sin_theta_norm: symmetric route {sym:.3e} vs {value:.3e}")
    if abs(value * value - sq_alt) > CROSS_TOL:
        raise CrossCheckFailure(
            f"sin_theta_norm: sigma_min route {sq_alt:.3e} vs {value * value:.3e}")
    return value
