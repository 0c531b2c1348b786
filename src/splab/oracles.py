"""Exact-identity verifiers and the independent ground-truth distance oracle.

The subspace distance between the original and perturbed invariant subspaces
admits an exact algebraic expression: the cross-Gram matrix of the two
orthonormal bases equals a Hadamard product of entrywise reciprocal
eigenvalue differences with the perturbation coupling block, framed by
inverted QR factors.  Each row of the coupling block also has a closed form
through the characteristic polynomial of the shifted perturbed matrix, and
the same block arises as the residue of a resolvent contour integral.  This
module computes every one of those routes independently so they can be
cross-checked, plus a brute-force subspace distance that shares no
intermediate state with the main pipeline.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np
import scipy.linalg

from .bounds import analyze
from .config import DEFAULT_TOL, Tolerances
from .errors import (
    EnclosureViolated,
    GapViolated,
    ResolventSingular,
    ShapeMismatch,
    SpecViolation,
)
from .linalg import EigenDecomposition, as_matrix, cond2, singular_values
from .partition import (
    Disk,
    IndexSet,
    MatchStrategy,
    Selector,
    SpectralPartition,
    TopKMagnitude,
)


@dataclass(frozen=True)
class Contour:
    """A positively oriented circle for resolvent quadrature."""

    center: complex
    radius: float
    nodes: int = 256

    def points(self) -> tuple[np.ndarray, np.ndarray]:
        """Nodes z_k and weights w_k with (1/2 pi i) contour-int f dz ~ sum w_k f(z_k)."""
        if self.nodes < 16:
            raise SpecViolation(f"contour: need >= 16 nodes, got {self.nodes}")
        theta = 2.0 * np.pi * np.arange(self.nodes) / self.nodes
        unit = np.exp(1j * theta)
        return self.center + self.radius * unit, self.radius * unit / self.nodes


@dataclass(frozen=True)
class OracleContext:
    """Shared state for the identity verifiers of one (A, dA, split) case."""

    a: np.ndarray
    a_tilde: np.ndarray
    da: np.ndarray
    part: SpectralPartition
    part_tilde: SpectralPartition
    gap_recip: np.ndarray   # (n-r) x r entrywise reciprocal eigenvalue differences
    coupling: np.ndarray    # (gap_recip o V2* dA X1t) R_X1t^{-1}

    @functools.cached_property
    def kprod(self) -> float:
        """k2(R_V2) k2(R_X1t), the conditioning product of the framing R factors."""
        return cond2(self.part.qr_v2.r) * cond2(self.part_tilde.qr_x1.r)


def reciprocal_gap_matrix(lambda1_tilde, lambda2) -> np.ndarray:
    """Entrywise reciprocals 1 / (perturbed kept eigenvalue - complement
    eigenvalue), shape (n-r) x r; raises GapViolated on any coincidence."""
    lt = np.atleast_1d(np.asarray(lambda1_tilde, dtype=np.complex128))
    l2 = np.atleast_1d(np.asarray(lambda2, dtype=np.complex128))
    diff = lt[np.newaxis, :] - l2[:, np.newaxis]
    if np.any(diff == 0):
        raise GapViolated("reciprocal_gap_matrix: coincident eigenvalues")
    return 1.0 / diff


def build_oracle_context(a, da, selector: Selector,
                         match: MatchStrategy | None = None,
                         tol: Tolerances = DEFAULT_TOL) -> OracleContext:
    run = analyze(a, da, selector, match, tol)
    part, part_t = run.part, run.part_tilde
    recip = reciprocal_gap_matrix(part_t.lambda1, part.lambda2)
    hadamard = recip * (part.v2.conj().T @ run.da @ part_t.x1)
    coupling = scipy.linalg.solve_triangular(part_t.qr_x1.r.T, hadamard.T, lower=True).T
    return OracleContext(a=run.a, a_tilde=run.a + run.da, da=run.da, part=part,
                         part_tilde=part_t, gap_recip=recip, coupling=coupling)


def hadamard_identity_residual(ctx: OracleContext) -> float:
    """|| cross-Gram of (Q_V2, Q_X1t)  -  framed Hadamard form ||.

    Both sides are computed from scratch: the left side multiplies the two Q
    factors, the right side assembles the Hadamard product and inverts the
    two R factors by triangular solves.
    """
    lhs = ctx.part.qr_v2.q.conj().T @ ctx.part_tilde.qr_x1.q
    rhs = _hadamard_rhs(ctx)
    return float(np.linalg.norm(lhs - rhs, 2))


def _hadamard_rhs(ctx: OracleContext) -> np.ndarray:
    hadamard = ctx.gap_recip * (ctx.part.v2.conj().T @ ctx.da @ ctx.part_tilde.x1)
    r_v2 = ctx.part.qr_v2.r
    r_x1t = ctx.part_tilde.qr_x1.r
    left = scipy.linalg.solve_triangular(r_v2.conj().T, hadamard, lower=True)
    return scipy.linalg.solve_triangular(r_x1t.T, left.T, lower=True).T


def hadamard_identity_threshold(ctx: OracleContext,
                                tol: Tolerances = DEFAULT_TOL) -> float:
    """Acceptance threshold: 1e-8, scaled up only for right-hand sides above
    unit norm or conditioning products beyond the suite cap."""
    rhs_norm = float(np.linalg.norm(_hadamard_rhs(ctx), 2))
    return 1e-8 * max(1.0, rhs_norm) * max(1.0, ctx.kprod / 1e8)


def elementary_symmetric(lhat) -> np.ndarray:
    """Elementary symmetric sums s_1..s_r of the inputs, by the coefficient
    recurrence of the incremental product (z - x_1)...(z - x_m)."""
    vals = np.atleast_1d(np.asarray(lhat, dtype=np.complex128))
    r = vals.shape[0]
    if r < 1:
        raise ShapeMismatch("elementary_symmetric: need at least one value")
    sig = np.zeros(r + 1, dtype=np.complex128)
    sig[0] = 1.0
    for m, x in enumerate(vals, start=1):
        for k in range(m, 0, -1):
            sig[k] = sig[k] + x * sig[k - 1]
    return sig[1:]


def coupling_row(ctx: OracleContext, i: int) -> np.ndarray:
    """Row ``i`` of the coupling block via the characteristic-polynomial form.

    Evaluates the degree r-1 matrix polynomial in (A~ - lambda2_i I) by a
    right-to-left Horner sweep applied to the r columns of Q_X1t; matrix
    powers are never formed.
    """
    part, part_t = ctx.part, ctx.part_tilde
    n_minus_r = part.lambda2.shape[0]
    if not 0 <= i < n_minus_r:
        raise ShapeMismatch(f"coupling_row: row {i} outside 0..{n_minus_r - 1}")
    shift = part.lambda2[i]
    lhat = part_t.lambda1 - shift
    if np.any(lhat == 0):
        raise GapViolated("coupling_row: shifted eigenvalue is zero")
    r = part.r
    sig = elementary_symmetric(lhat)
    q = part_t.qr_x1.q
    a_hat = ctx.a_tilde - shift * np.eye(ctx.a_tilde.shape[0], dtype=np.complex128)
    # Horner over descending powers; coefficient of power r-1-k is (-1)^k sig_k
    work = q.copy()
    for k in range(1, r):
        work = a_hat @ work + ((-1) ** k * sig[k - 1]) * q
    denom = ((-1) ** (r + 1)) * sig[r - 1]
    row = (part.v2[:, i].conj() @ ctx.da @ work) / denom
    return np.asarray(row, dtype=np.complex128).reshape(-1)


def _classify_by_contour(lam: np.ndarray, contour: Contour,
                         tol: Tolerances) -> tuple[np.ndarray, np.ndarray]:
    dist = np.abs(lam - contour.center)
    band = tol.contour_margin * contour.radius
    inside = dist <= contour.radius - band
    outside = dist >= contour.radius + band
    strays = ~(inside | outside)
    if np.any(strays):
        raise EnclosureViolated(
            f"contour: eigenvalue at distance {float(dist[strays][0]):.6g} sits in the "
            f"margin band around radius {contour.radius:.6g}")
    if not np.any(inside) or not np.any(outside):
        raise EnclosureViolated("contour: circle must separate the spectrum properly")
    return inside, outside


def _check_nodes(lam: np.ndarray, contour: Contour, tol: Tolerances) -> None:
    pts, _ = contour.points()
    gap = np.min(np.abs(pts[:, np.newaxis] - lam[np.newaxis, :]))
    if gap < tol.resolvent_tol * contour.radius:
        raise ResolventSingular(f"contour: node within {gap:.3e} of an eigenvalue")


def contour_projector(a, ed: EigenDecomposition, contour: Contour, side: int = 1,
                      tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Spectral projector by trapezoid quadrature of the resolvent integral.

    The circle must separate the spectrum with the configured margin; the
    side-1 projector covers the enclosed eigenvalues and the side-2 projector
    is its complement.  The quadrature error decreases geometrically in the
    node count while above roundoff.
    """
    a = as_matrix(a, "A")
    if side not in (1, 2):
        raise SpecViolation(f"contour_projector: side must be 1 or 2, got {side}")
    _classify_by_contour(ed.lam, contour, tol)
    _check_nodes(ed.lam, contour, tol)
    pts, weights = contour.points()
    n = a.shape[0]
    eye = np.eye(n, dtype=np.complex128)
    acc = np.zeros((n, n), dtype=np.complex128)
    for z, w in zip(pts, weights):
        acc += w * scipy.linalg.solve(z * eye - a, eye)
    return acc if side == 1 else eye - acc


def enclosing_circle(inside, outside, nodes: int = 256,
                     tol: Tolerances = DEFAULT_TOL) -> Contour:
    """Circle around the mean of ``inside`` separating it from ``outside``
    with the configured margins; raises EnclosureViolated when impossible."""
    li = np.atleast_1d(np.asarray(inside, dtype=np.complex128))
    lo = np.atleast_1d(np.asarray(outside, dtype=np.complex128))
    center = complex(np.mean(li))
    r_in = float(np.max(np.abs(li - center)))
    r_out = float(np.min(np.abs(lo - center)))
    m = tol.contour_margin
    low = r_in / (1.0 - m)
    high = r_out / (1.0 + m)
    if low > high or high == 0.0:
        raise EnclosureViolated(
            f"enclosing_circle: need radius in [{low:.6g}, {high:.6g}]")
    return Contour(center=center, radius=0.5 * (low + high), nodes=nodes)


def residue_coupling_matrix(ctx: OracleContext) -> np.ndarray:
    """Coupling block before the R-factor framing, from the residue formula:
    entrywise (perturbed-kept minus complement eigenvalue)^{-1} times the
    projected perturbation."""
    return ctx.gap_recip * (ctx.part.v2.conj().T @ ctx.da @ ctx.part_tilde.x1)


def contour_coupling_matrix(ctx: OracleContext, contour: Contour | None = None,
                            nodes: int = 256,
                            tol: Tolerances = DEFAULT_TOL) -> np.ndarray:
    """Same block as ``residue_coupling_matrix`` but via trapezoid quadrature
    of the diagonal-resolvent contour integral; independent numerical route."""
    inside = np.concatenate([ctx.part.lambda1, ctx.part_tilde.lambda1])
    outside = np.concatenate([ctx.part.lambda2, ctx.part_tilde.lambda2])
    if np.min(np.abs(inside[:, np.newaxis] - outside[np.newaxis, :])) == 0.0:
        raise GapViolated("contour_coupling_matrix: kept and complement spectra meet")
    if contour is None:
        contour = enclosing_circle(inside, outside, nodes, tol)
    everything = np.concatenate([inside, outside])
    _check_nodes(everything, contour, tol)
    in_mask, _ = _classify_by_contour(everything, contour, tol)
    if not np.all(in_mask[: inside.shape[0]]) or np.any(in_mask[inside.shape[0]:]):
        raise EnclosureViolated("contour_coupling_matrix: circle does not enclose "
                                "exactly the kept spectra")
    core = ctx.part.v2.conj().T @ ctx.da @ ctx.part_tilde.x1
    pts, weights = contour.points()
    acc = np.zeros_like(core)
    l2 = ctx.part.lambda2
    l1t = ctx.part_tilde.lambda1
    for z, w in zip(pts, weights):
        acc += w * ((1.0 / (z - l2))[:, np.newaxis] * core * (1.0 / (z - l1t))[np.newaxis, :])
    return acc


def _brute_order(w: np.ndarray) -> list[int]:
    return sorted(range(w.shape[0]),
                  key=lambda i: (-abs(w[i]), -w[i].real, -w[i].imag))


def _brute_select(w: np.ndarray, selector: Selector) -> list[int]:
    order = _brute_order(w)
    if isinstance(selector, TopKMagnitude):
        return order[: selector.k]
    if isinstance(selector, IndexSet):
        return [order[i] for i in sorted(selector.indices)]
    if isinstance(selector, Disk):
        dist = np.abs(w - selector.center)
        keep = dist < selector.radius if selector.inside else dist > selector.radius
        return [i for i in range(w.shape[0]) if keep[i]]
    raise SpecViolation(f"unknown selector {selector!r}")


def brute_force_sin_theta(a, da, selector: Selector) -> float:
    """Ground-truth subspace distance through a fully independent pipeline:
    scipy eigensolver, SVD-based orthonormalization, and the projector-residual
    formula ||(I - Q Q*) Q~||.  Shares no intermediate state with the main
    pipeline."""
    a = as_matrix(a, "A")
    da = as_matrix(da, "dA")
    w, x = scipy.linalg.eig(a)
    wt, xt = scipy.linalg.eig(a + da)
    keep = _brute_select(w, selector)
    keep_t = _brute_select(wt, selector)
    if len(keep) != len(keep_t) or not keep:
        raise ShapeMismatch("brute_force_sin_theta: selector sides differ in size")
    q = scipy.linalg.orth(x[:, keep])
    qt = scipy.linalg.orth(xt[:, keep_t])
    if q.shape[1] != qt.shape[1]:
        raise ShapeMismatch("brute_force_sin_theta: orthonormal bases differ in rank")
    resid = qt - q @ (q.conj().T @ qt)
    return float(singular_values(resid)[0])
