"""Spectral partitioning and eigengap computation.

Splits an eigendecomposition into a studied spectral set and its complement,
re-identifies the same split after a perturbation (either by reapplying the
selector or by a minimum-cost eigenvalue assignment), and computes the three
gap notions used by the bounds: the pairwise gap, the disk-separation gap,
and the post-perturbation gap.

The module does not import ``scipy.optimize``, which would add about 0.2 s
to every command-line start: the disk-separation gap is refined by a planar
Nelder-Mead of its own that takes scipy's steps, and a nearest assignment
calls scipy's solver only when the nearest eigenvalues do not certify it.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Union

import numpy as np

from .errors import (
    AssignmentAmbiguous,
    BoundaryAmbiguity,
    EmptySide,
    ShapeMismatch,
    SpecViolation,
)
from .linalg import (
    EigenDecomposition,
    QRFactors,
    _into_safe_range,
    _times_power_of_two,
    qr_decompose,
)


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
    record each block's positions in it.  Of the eigenvector blocks it keeps
    X1 and the dual basis V2 of the complement; X2 and V1 are read by no
    bound.
    The QR factors of ``x1`` and ``v2`` are built on first access, so
    RankDeficient surfaces there.
    """

    r: int
    lam: np.ndarray
    lambda1: np.ndarray
    lambda2: np.ndarray
    x1: np.ndarray
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
    if not (np.isfinite(sel.center) and np.isfinite(sel.radius)):
        raise SpecViolation(f"disk: centre {sel.center} and radius {sel.radius} must be finite")
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
    kept = set(idx1)
    idx2 = [i for i in range(n) if i not in kept]
    return SpectralPartition(
        r=len(idx1),
        lam=ed.lam,
        lambda1=ed.lam[idx1],
        lambda2=ed.lam[idx2],
        x1=ed.x[:, idx1],
        v2=ed.v[:, idx2],
        idx1=tuple(idx1),
        idx2=tuple(idx2),
    )


def partition(ed: EigenDecomposition, sel: Selector) -> SpectralPartition:
    """Split ``ed`` into the selected block and its complement."""
    return _build(ed, _side1_indices(ed.lam, sel))


# cost of the cheapest cross-split swap, scaled by the spectral scale, below
# which the nearest assignment is ambiguous
ASSIGN_TOL = 1e-12


def _min_cost_assignment(cost: np.ndarray) -> list[int]:
    """The column ``scipy.optimize.linear_sum_assignment`` assigns to each row
    of the square ``cost``.

    When every row has a strict minimum and those columns are distinct, that
    bijection is the unique minimum-cost assignment: any other assignment
    gives some row more than its minimum and no row less.  The solver then
    returns exactly it, so it is not called.  Otherwise the solver decides;
    it is imported here, which keeps ``scipy.optimize`` off the import path.
    """
    n = cost.shape[0]
    cols = cost.argmin(axis=1)
    assigned = cols.tolist()
    # a row's minimum is strict when its n - 1 other entries exceed it; a row
    # holding NaN has a NaN minimum, which no entry exceeds
    if (len(set(assigned)) == n
            and np.count_nonzero(cost > cost[np.arange(n), cols][:, np.newaxis]) == n * (n - 1)):
        return assigned
    import scipy.optimize

    return scipy.optimize.linear_sum_assignment(cost)[1].tolist()


def match_partition(ed_tilde: EigenDecomposition, base: SpectralPartition,
                    strategy: MatchStrategy) -> SpectralPartition:
    """Partition the perturbed decomposition consistently with ``base``.

    Raises AssignmentAmbiguous when a cross-split swap is within
    ``ASSIGN_TOL`` of the optimal assignment cost.  The post-perturbation gap
    is not checked here; the consumers of the match check it.
    """
    if isinstance(strategy, SameSelector):
        return partition(ed_tilde, strategy.selector)
    if ed_tilde.n != base.lam.shape[0]:
        raise ShapeMismatch("match_partition: spectra have different sizes")
    # the matching of 2**-e times both spectra is theirs, and its costs cannot overflow
    exponent, (lam_t, lam_base) = _into_safe_range(ed_tilde.lam, base.lam)
    cost = np.abs(lam_t[:, np.newaxis] - lam_base[np.newaxis, :])
    assigned = _min_cost_assignment(cost)
    base1 = set(base.idx1)
    side1 = [i for i, j in enumerate(assigned) if j in base1]
    kept = set(side1)
    side2 = [i for i in range(lam_t.shape[0]) if i not in kept]
    scale = float(max(np.max(np.abs(lam_t)), np.max(np.abs(lam_base)), 1e-300))
    rows = cost.tolist()  # Python floats: the same sums, without numpy scalars
    for i in side1:
        for k in side2:
            swap = (rows[i][assigned[k]] + rows[k][assigned[i]]
                    - rows[i][assigned[i]] - rows[k][assigned[k]])
            if swap < ASSIGN_TOL * scale:
                raise AssignmentAmbiguous(
                    f"match_partition: swapping rows {i} and {k} changes the "
                    f"cost by {_times_power_of_two(swap, exponent):.3e}")
    return _build(ed_tilde, side1)


def gap_delta1(lambda1, lambda2) -> float:
    """Minimum modulus distance between the two spectral sets, inf where it
    overflows."""
    l1 = np.atleast_1d(np.asarray(lambda1, dtype=np.complex128))
    l2 = np.atleast_1d(np.asarray(lambda2, dtype=np.complex128))
    if l1.size == 0 or l2.size == 0:
        raise EmptySide("gap_delta1: both spectral sets must be nonempty")
    with np.errstate(over="ignore"):
        return float(np.min(np.abs(l1[:, np.newaxis] - l2[np.newaxis, :])))


def _disk_margins(t: np.ndarray, l1: np.ndarray, l2: np.ndarray) -> np.ndarray:
    """max of the two directional disk-separation margins at each center.

    Each side's least and greatest distance is a running minimum and maximum
    over its eigenvalues, one at a time, so memory is O(centres) at any n."""
    def extremes(lam):
        lo, hi = np.full(t.shape, np.inf), np.zeros(t.shape)
        for z in lam:
            dist = np.abs(z - t)
            np.minimum(lo, dist, out=lo)
            np.maximum(hi, dist, out=hi)
        return lo, hi

    lo1, hi1 = extremes(l1)
    lo2, hi2 = extremes(l2)
    # set 1 inside and set 2 outside, or set 2 inside and set 1 outside
    return np.maximum(lo2 - hi1, lo1 - hi2)


# rounding room, times the diameter, of the block screen in ``_grid_argmax``.
# Every grid centre lies within 1.26 diameters of every eigenvalue (the grid
# inflates the bounding box by 50 %).  A computed distance is within 3u of the
# exact one (u = eps/2: the two offsets and hypot), and the subtraction of the
# two extremes adds u, so a computed margin is within 9u * diam of the exact
# margin at the same centre, and a centre's and its anchor's rounding stay
# under 9 eps * diam together: 64 eps leaves a factor of 7 for the rounding
# of the reach and of the screen's own sum.
SCREEN_SLACK = 64 * np.finfo(np.float64).eps

# grid centres per block side in the block screen: one anchor, the block's
# centre, stands for its _SCREEN_BLOCK x _SCREEN_BLOCK centres (4 and 16 timed
# about the same)
_SCREEN_BLOCK = 8


def _blocks(axis: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Anchor index of each block along one grid axis (every _SCREEN_BLOCK-th
    centre), the block of each centre (its nearest anchor) and each block's
    reach, the largest offset of one of its centres from the anchor."""
    anchors = np.arange(0, axis.size, _SCREEN_BLOCK)
    block = np.minimum((np.arange(axis.size) + _SCREEN_BLOCK // 2) // _SCREEN_BLOCK,
                       anchors.size - 1)
    starts = np.maximum(anchors - _SCREEN_BLOCK // 2, 0)
    reach = np.maximum.reduceat(np.abs(axis - axis[anchors[block]]), starts)
    return anchors, block, reach


def _grid_argmax(res: np.ndarray, ims: np.ndarray, l1: np.ndarray, l2: np.ndarray,
                 diam: float) -> tuple[complex, float]:
    """First-occurrence argmax of ``_disk_margins`` over the row-major grid
    ``res[None, :] + 1j * ims[:, None]``: its centre and value, bit for bit.

    The anchors, every ``_SCREEN_BLOCK``-th centre in each direction, are
    evaluated first.  Each margin moves by at most twice the distance its
    centre moves, so a block whose anchor's margin plus twice the block's
    reach plus ``SCREEN_SLACK * diam`` falls short of the best anchor's
    margin holds only centres below it, and is dropped.  The centres of the
    other blocks are evaluated in row-major order, and their first maximum
    is the grid's."""
    anchor_y, block_y, reach_y = _blocks(ims)
    anchor_x, block_x, reach_x = _blocks(res)
    coarse = _disk_margins((res[anchor_x][np.newaxis, :]
                            + 1j * ims[anchor_y][:, np.newaxis]).reshape(-1), l1, l2)
    reach = np.hypot(reach_y[:, np.newaxis], reach_x[np.newaxis, :]).reshape(-1)
    kept = (coarse + 2.0 * reach + SCREEN_SLACK * diam >= coarse.max()).reshape(anchor_y.size, -1)
    iy, ix = np.divmod(np.flatnonzero(kept[block_y[:, np.newaxis], block_x[np.newaxis, :]]),
                       res.size)
    centres = res[ix] + 1j * ims[iy]
    vals = _disk_margins(centres, l1, l2)
    best = int(np.argmax(vals))
    return complex(centres[best]), float(vals[best])


# scipy's default Nelder-Mead start: the first vertex is x0, and each further
# vertex moves one coordinate of x0 by 5 %, or to 0.00025 when it is 0
_NM_STEP, _NM_ZERO_STEP = 0.05, 0.00025


def _nan_last(vertex: list[float]) -> tuple[bool, float]:
    """Sort key of a ``[value, x, y]`` vertex: a stable sort by it orders three
    values as ``np.argsort`` does, ties in place and NaN last."""
    return vertex[0] != vertex[0], vertex[0]


def _nelder_mead(func, x0: float, y0: float, tol: float,
                 maxiter: int) -> tuple[float, float, float]:
    """Minimise ``func(x, y)`` from ``(x0, y0)``: the ``x`` and ``fun`` of
    ``scipy.optimize.minimize(method="Nelder-Mead")`` with ``xatol`` and
    ``fatol`` both ``tol`` and this ``maxiter``, bit for bit.

    It takes scipy's default (non-adaptive) steps one for one on Python
    floats, with the same operands in the same order: reflection 1, expansion
    2, outside and inside contraction 1/2 and shrink 1/2 from the centroid of
    the two best vertices, in scipy's branch order; it stops when every
    vertex lies within ``tol`` of the best in each coordinate and in value, or
    after ``maxiter - 1`` iterations (scipy counts the start as the first),
    and re-sorts the vertices after each iteration.
    """
    x1 = x0 * (1 + _NM_STEP) if x0 != 0 else _NM_ZERO_STEP
    y2 = y0 * (1 + _NM_STEP) if y0 != 0 else _NM_ZERO_STEP
    sim = [[func(x, y), x, y] for x, y in ((x0, y0), (x1, y0), (x0, y2))]
    sim.sort(key=_nan_last)
    for _ in range(maxiter - 1):
        (f0, x0, y0), (f1, x1, y1), (f2, x2, y2) = sim
        if all(abs(d) <= tol for d in (x1 - x0, y1 - y0, x2 - x0, y2 - y0, f0 - f1, f0 - f2)):
            break
        xb, yb = (x0 + x1) / 2, (y0 + y1) / 2
        xr, yr = 2 * xb - x2, 2 * yb - y2  # reflection
        fr = func(xr, yr)
        if fr < f0:
            xe, ye = 3 * xb - 2 * x2, 3 * yb - 2 * y2  # expansion
            fe = func(xe, ye)
            sim[2] = [fe, xe, ye] if fe < fr else [fr, xr, yr]
        elif fr < f1:
            sim[2] = [fr, xr, yr]
        else:
            if fr < f2:  # outside contraction
                xc, yc = 1.5 * xb - 0.5 * x2, 1.5 * yb - 0.5 * y2
                fc = func(xc, yc)
                keep = fc <= fr
            else:  # inside contraction
                xc, yc = 0.5 * xb + 0.5 * x2, 0.5 * yb + 0.5 * y2
                fc = func(xc, yc)
                keep = fc < f2
            if keep:
                sim[2] = [fc, xc, yc]
            else:  # shrink towards the best vertex
                for vertex in sim[1:]:
                    vertex[1] = x0 + 0.5 * (vertex[1] - x0)
                    vertex[2] = y0 + 0.5 * (vertex[2] - y0)
                    vertex[0] = func(vertex[1], vertex[2])
        sim.sort(key=_nan_last)
    # scipy reports np.min of the values (NaN if any is), not the best vertex's
    return sim[0][1], sim[0][2], float(np.min([vertex[0] for vertex in sim]))


def gap_delta0(lambda1, lambda2) -> tuple[float, complex]:
    """Best disk-separation margin over all disk centers, with its witness.

    When one side is a single eigenvalue the answer is exact: every margin is
    at most ``gap_delta1`` (triangle inequality), and a vanishing disk on the
    lone eigenvalue attains it, so that eigenvalue is the witness.

    Otherwise a two-stage search.  First the best centre of a grid over the
    50%-inflated bounding box of the joint spectrum (pitch = diameter/200,
    first-occurrence tie break), found by ``_grid_argmax``: a lattice of
    anchor centres rules out the blocks that cannot hold the best, and every
    centre of the others is evaluated.  Then a Nelder-Mead refinement from
    that centre to 1e-8 * diameter, by ``_nelder_mead``: scipy's default
    Nelder-Mead, step for step, so the result does not depend on which scipy
    is installed.  The value is clipped to [0, ``gap_delta1``], so it is a
    certified lower bound on the supremum.

    delta0(c L1, c L2) = c delta0(L1, L2).  A spectrum whose largest real or
    imaginary part lies outside 2**±256 is searched scaled by a power of two
    (``linalg._into_safe_range``), which is exact, to bring that part into
    [1/2, 1), and the value and witness are scaled back; otherwise its width
    could overflow.
    """
    l1 = np.atleast_1d(np.asarray(lambda1, dtype=np.complex128))
    l2 = np.atleast_1d(np.asarray(lambda2, dtype=np.complex128))
    if l1.size == 0 or l2.size == 0:
        raise EmptySide("gap_delta0: both spectral sets must be nonempty")
    if l1.size == 1 or l2.size == 1:
        return gap_delta1(l1, l2), complex((l1 if l1.size == 1 else l2)[0])
    exponent, sides = _into_safe_range(l1, l2)
    value, witness = _delta0_search(*sides)
    return (_times_power_of_two(value, exponent),
            complex(_times_power_of_two(witness.real, exponent),
                    _times_power_of_two(witness.imag, exponent)))


def _delta0_search(l1: np.ndarray, l2: np.ndarray) -> tuple[float, complex]:
    """``gap_delta0`` of two sides of two or more eigenvalues each: the grid,
    then the Nelder-Mead refinement."""
    pts = np.concatenate([l1, l2])
    re_lo, re_hi = float(pts.real.min()), float(pts.real.max())
    im_lo, im_hi = float(pts.imag.min()), float(pts.imag.max())
    width, height = re_hi - re_lo, im_hi - im_lo
    diam = float(np.hypot(width, height))
    if diam == 0.0:  # one point: every distance, hence every margin, is 0
        return 0.0, complex(pts[0])

    re_c, im_c = 0.5 * (re_lo + re_hi), 0.5 * (im_lo + im_hi)
    half_w, half_h = 0.75 * width, 0.75 * height  # 50% inflation
    pitch = diam / 200.0
    res = np.arange(re_c - half_w, re_c + half_w + 0.5 * pitch, pitch) if half_w > 0 \
        else np.array([re_c])
    ims = np.arange(im_c - half_h, im_c + half_h + 0.5 * pitch, pitch) if half_h > 0 \
        else np.array([im_c])
    t_best, f_best = _grid_argmax(res, ims, l1, l2, diam)

    def negated(x, y):
        t = complex(x, y)
        d1, d2 = np.abs(l1 - t).tolist(), np.abs(l2 - t).tolist()
        return -max(min(d2) - max(d1), min(d1) - max(d2))

    x, y, fun = _nelder_mead(negated, t_best.real, t_best.imag, 1e-8 * diam, 800)
    if -fun > f_best:
        f_best, t_best = -fun, complex(x, y)
    # the pairwise gap upper-bounds every disk margin (triangle inequality);
    # clipping removes evaluation roundoff that would break that order
    f_best = min(f_best, gap_delta1(l1, l2))
    return max(f_best, 0.0), t_best
