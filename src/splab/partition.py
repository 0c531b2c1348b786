"""Spectral partitioning and eigengap computation.

Splits an eigendecomposition into a studied spectral set and its complement,
re-identifies the same split after a perturbation (either by reapplying the
selector or by a minimum-cost eigenvalue assignment), and computes the three
gap notions used by the bounds: the pairwise gap, the disk-separation gap,
and the post-perturbation gap.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np
import scipy.optimize

from .errors import (
    AssignmentAmbiguous,
    BoundaryAmbiguity,
    EmptySide,
    ShapeMismatch,
    SpecViolation,
)
from .linalg import EigenDecomposition, QRFactors, qr_decompose


@dataclass(frozen=True)
class TopKMagnitude:
    """Select the k eigenvalues of largest magnitude (global ordering)."""

    k: int


@dataclass(frozen=True)
class IndexSet:
    """Select eigenvalues by position in the sorted eigenvalue list."""

    indices: tuple[int, ...]


@dataclass(frozen=True)
class Disk:
    """Select eigenvalues strictly inside (or outside) a disk in C."""

    center: complex
    radius: float
    inside: bool = True


Selector = Union[TopKMagnitude, IndexSet, Disk]


def parse_selector(text: str) -> Selector:
    """Parse "topk:2", "indices:0,1,4", or "disk:1.0+0.0i:0.3:inside"."""
    parts = text.strip().split(":")
    kind = parts[0].lower()
    try:
        if kind == "topk" and len(parts) == 2:
            return TopKMagnitude(k=int(parts[1]))
        if kind == "indices" and len(parts) == 2:
            idx = tuple(int(tok) for tok in parts[1].split(",") if tok != "")
            return IndexSet(indices=idx)
        if kind == "disk" and len(parts) in (3, 4):
            center = complex(parts[1].replace("i", "j"))
            radius = float(parts[2])
            inside = True
            if len(parts) == 4:
                if parts[3] not in ("inside", "outside"):
                    raise ValueError(parts[3])
                inside = parts[3] == "inside"
            return Disk(center=center, radius=radius, inside=inside)
    except (ValueError, TypeError) as exc:
        raise SpecViolation(f"cannot parse selector {text!r}: {exc}") from exc
    raise SpecViolation(f"cannot parse selector {text!r}")


def format_selector(sel: Selector) -> str:
    if isinstance(sel, TopKMagnitude):
        return f"topk:{sel.k}"
    if isinstance(sel, IndexSet):
        return "indices:" + ",".join(str(i) for i in sel.indices)
    side = "inside" if sel.inside else "outside"
    c = complex(sel.center)
    return f"disk:{c.real:g}{c.imag:+g}i:{sel.radius:g}:{side}"


@dataclass(frozen=True)
class SpectralPartition:
    """An eigendecomposition split into the studied block and its complement.

    Column order inside each block preserves the global eigenvalue ordering;
    ``lam`` is the parent decomposition's sorted spectrum and ``idx1``/``idx2``
    record each block's positions in it.  The QR factors of ``x1`` and ``v2`` are
    built on first access, so RankDeficient surfaces there.
    """

    r: int
    lam: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    x1: np.ndarray
    x2: np.ndarray
    v1: np.ndarray
    v2: np.ndarray
    idx1: tuple[int, ...]
    idx2: tuple[int, ...]

    @functools.cached_property
    def qr_x1(self) -> QRFactors:
        return qr_decompose(self.x1)

    @functools.cached_property
    def qr_v2(self) -> QRFactors:
        return qr_decompose(self.v2)


@dataclass(frozen=True)
class SameSelector:
    """Re-identify the split by applying the selector to the new spectrum."""

    selector: Selector


@dataclass(frozen=True)
class NearestAssignment:
    """Re-identify the split by a minimum-total-distance eigenvalue matching."""


MatchStrategy = Union[SameSelector, NearestAssignment]


# eigenvalue distance from a disk selector's boundary, scaled by its radius,
# at or below which the side is ambiguous
DISK_TOL = 1e-9


def _side1_indices(lam: np.ndarray, sel: Selector) -> list[int]:
    n = lam.shape[0]
    if n == 1:
        raise EmptySide("a 1x1 matrix has no split: each side needs an eigenvalue")
    if isinstance(sel, TopKMagnitude):
        if not 1 <= sel.k <= n - 1:
            raise EmptySide(f"topk: k={sel.k} must lie in 1..{n - 1}")
        return list(range(sel.k))
    if isinstance(sel, IndexSet):
        idx = sorted(set(sel.indices))
        if len(idx) != len(sel.indices):
            raise SpecViolation("indices: duplicate entries")
        if not idx or any(i < 0 or i >= n for i in idx):
            raise EmptySide(f"indices: need a nonempty subset of 0..{n - 1}")
        if len(idx) == n:
            raise EmptySide("indices: selector captured every eigenvalue")
        return idx
    if sel.radius <= 0:
        raise SpecViolation("disk: radius must be positive")
    dist = np.abs(lam - sel.center)
    band = DISK_TOL * sel.radius
    near = np.nonzero(np.abs(dist - sel.radius) <= band)[0]
    if near.size:
        raise BoundaryAmbiguity(
            f"disk: eigenvalue index {int(near[0])} within {band:.1e} of the boundary")
    mask = dist < sel.radius if sel.inside else dist > sel.radius
    idx = [int(i) for i in np.nonzero(mask)[0]]
    if not idx or len(idx) == n:
        raise EmptySide("disk: selector captured all or no eigenvalues")
    return idx


def _build(ed: EigenDecomposition, idx1: list[int]) -> SpectralPartition:
    n = ed.n
    idx2 = [i for i in range(n) if i not in set(idx1)]
    x1, x2 = ed.x[:, idx1], ed.x[:, idx2]
    v1, v2 = ed.v[:, idx1], ed.v[:, idx2]
    return SpectralPartition(
        r=len(idx1),
        lam=ed.lam,
        lambda1=ed.lam[idx1],
        lambda2=ed.lam[idx2],
        x1=x1,
        x2=x2,
        v1=v1,
        v2=v2,
        idx1=tuple(idx1),
        idx2=tuple(idx2),
    )


def partition(ed: EigenDecomposition, sel: Selector) -> SpectralPartition:
    """Split ``ed`` into the selected block and its complement."""
    return _build(ed, _side1_indices(ed.lam, sel))


# cost of the cheapest cross-split swap, scaled by the spectral scale, below
# which the nearest assignment is ambiguous
ASSIGN_TOL = 1e-12


def match_partition(ed_tilde: EigenDecomposition, base: SpectralPartition,
                    strategy: MatchStrategy) -> SpectralPartition:
    """Partition the perturbed decomposition consistently with ``base``.

    Raises AssignmentAmbiguous when a cross-split swap is within
    ``ASSIGN_TOL`` of the optimal assignment cost.  The post-perturbation gap
    is not checked here; the consumers of the match check it.
    """
    if isinstance(strategy, SameSelector):
        return partition(ed_tilde, strategy.selector)
    lam_base = base.lam
    lam_t = ed_tilde.lam
    if lam_t.shape[0] != lam_base.shape[0]:
        raise ShapeMismatch("match_partition: spectra have different sizes")
    cost = np.abs(lam_t[:, np.newaxis] - lam_base[np.newaxis, :])
    rows, cols = scipy.optimize.linear_sum_assignment(cost)
    assigned_base = dict(zip(rows.tolist(), cols.tolist()))
    side1 = sorted(i for i, j in assigned_base.items() if j in set(base.idx1))
    side2 = [i for i in range(lam_t.shape[0]) if i not in set(side1)]
    scale = float(max(np.max(np.abs(lam_t)), np.max(np.abs(lam_base)), 1e-300))
    for i in side1:
        for k in side2:
            swap = (cost[i, assigned_base[k]] + cost[k, assigned_base[i]]
                    - cost[i, assigned_base[i]] - cost[k, assigned_base[k]])
            if swap < ASSIGN_TOL * scale:
                raise AssignmentAmbiguous(
                    f"match_partition: swapping rows {i} and {k} changes the "
                    f"cost by {swap:.3e}")
    return _build(ed_tilde, side1)


def gap_delta1(lambda1, lambda2) -> float:
    """Minimum modulus distance between the two spectral sets."""
    l1 = np.atleast_1d(np.asarray(lambda1, dtype=np.complex128))
    l2 = np.atleast_1d(np.asarray(lambda2, dtype=np.complex128))
    if l1.size == 0 or l2.size == 0:
        raise EmptySide("gap_delta1: both spectral sets must be nonempty")
    return float(np.min(np.abs(l1[:, np.newaxis] - l2[np.newaxis, :])))


# eigenvalue-centre pairs per _disk_margins call on the grid, which bounds the
# memory of the grid search at large n (below 24 eigenvalues it is one call)
GRID_PAIRS_PER_CALL = 2**20


def _disk_margins(t: np.ndarray, l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """max of the two directional disk-separation margins at each center."""
    d1 = np.abs(l1[:, np.newaxis] - t[np.newaxis, :])
    d2 = np.abs(l2[:, np.newaxis] - t[np.newaxis, :])
    inside2 = d1.min(axis=0) - d2.max(axis=0)  # set 2 inside, set 1 outside
    inside1 = d2.min(axis=0) - d1.max(axis=0)  # set 1 inside, set 2 outside
    return np.maximum(inside1, inside2)


def gap_delta0(lambda1, lambda2) -> tuple[float, complex]:
    """Best disk-separation margin over all disk centers, with its witness.

    Two-stage search: a dense grid over the 50%-inflated bounding box of the
    joint spectrum (pitch = diameter/200, first-occurrence tie break), then a
    Nelder-Mead refinement to 1e-8 * diameter.  The value is clamped at zero;
    the reported maximum is a certified lower bound on the supremum.
    """
    l1 = np.atleast_1d(np.asarray(lambda1, dtype=np.complex128))
    l2 = np.atleast_1d(np.asarray(lambda2, dtype=np.complex128))
    if l1.size == 0 or l2.size == 0:
        raise EmptySide("gap_delta0: both spectral sets must be nonempty")
    pts = np.concatenate([l1, l2])
    re_lo, re_hi = float(pts.real.min()), float(pts.real.max())
    im_lo, im_hi = float(pts.imag.min()), float(pts.imag.max())
    width, height = re_hi - re_lo, im_hi - im_lo
    diam = float(np.hypot(width, height))
    if diam == 0.0:
        t0 = complex(pts[0])
        return max(float(_disk_margins(np.array([t0]), l1, l2)[0]), 0.0), t0

    re_c, im_c = 0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi)
    half_w, half_h = 0.75 * width, 0.75 * height  # 50% inflation
    pitch = diam / 200.0
    res = np.arange(re_c - half_w, re_c + half_w + 0.5 * pitch, pitch) if half_w > 0 \
        else np.array([re_c])
    ims = np.arange(im_c - half_h, im_c + half_h + 0.5 * pitch, pitch) if half_h > 0 \
        else np.array([im_c])
    grid = (res[np.newaxis, :] + 1j * ims[:, np.newaxis]).reshape(-1)
    chunk = max(1, GRID_PAIRS_PER_CALL // pts.size)
    vals = np.concatenate([_disk_margins(grid[k:k + chunk], l1, l2)
                           for k in range(0, grid.size, chunk)])
    best = int(np.argmax(vals))
    t_best, f_best = complex(grid[best]), float(vals[best])

    def negated(xy):
        return -float(_disk_margins(np.array([complex(xy[0], xy[1])]), l1, l2)[0])

    opt = scipy.optimize.minimize(
        negated,
        x0=np.array([t_best.real, t_best.imag]),
        method="Nelder-Mead",
        options={"xatol": 1e-8 * diam, "fatol": 1e-8 * diam, "maxiter": 800},
    )
    if -opt.fun > f_best:
        f_best = float(-opt.fun)
        t_best = complex(opt.x[0], opt.x[1])
    # the pairwise gap upper-bounds every disk margin (triangle inequality);
    # clipping removes evaluation roundoff that would break that order
    f_best = min(f_best, gap_delta1(l1, l2))
    return max(f_best, 0.0), t_best
