"""Perturbation bounds for invariant subspaces and their assumption checks.

Two upper bounds on the subspace distance are computed side by side:

* the classical separation-derived tangent bound
  2 k2(X1) k2(V2) ||dA|| / [delta0 - 2 k2(X1) k2(V2) ||dA||]_+ , and
* the condition-number-free product bound
  (k2(V2) ||dA||_F / a) * prod_j (1 + a / gap_j), a = ||A|| + ||dA|| + rho(L2),
  in both its per-eigenvalue form and its coarser uniform-gap form.

``analyze`` runs the pipeline eig -> partition -> match once, and its
``Analysis`` is the one home of every report quantity: each is a cached
field, computed on first read.  Each field of ``BoundReport`` declares
which of them it reads and its sweep column: ``full_report`` reads every
field into the record a reader needs to audit either bound, and a sweep row
reads only the fields it prints.  The identity verifiers of ``oracles``
extend the same analysis.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass, field, fields, replace

import numpy as np
import scipy.linalg
from scipy.linalg.lapack import ztrsyl

from .angles import sin_theta_norm
from .errors import GapViolated, ShapeMismatch
from .linalg import _into_safe_range, _square, _times_power_of_two, as_matrix, eig, norms
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


def _quantity(read, column: str | None = None):
    """A report field read from an ``Analysis`` by ``read``; ``column`` names
    it in a sweep row, or is None where no sweep prints it."""
    return field(metadata={"read": read, "column": column})


@dataclass(frozen=True)
class BoundReport:
    """Everything needed to audit both bounds for one (A, dA, selector) run.

    The fields are the report format: ``io.report_to_obj`` writes one key per
    field, named after it and in this order.  Each field's metadata is the
    one declaration of its quantity: ``read`` computes it from an
    ``Analysis``, and ``column`` names its sweep column, or is None.  The
    readers run in field order, so sep is read before the measured sine.
    """

    delta0: float = _quantity(lambda run: run.disk_gap[0], "delta0")
    delta1: float = _quantity(lambda run: run.delta1, "delta1")
    delta_lambda: float = _quantity(lambda run: run.delta_lambda, "delta_lambda")
    t0_star: complex = _quantity(lambda run: run.disk_gap[1])
    a: float = _quantity(lambda run: run.a_scale)
    kappa_X1: float = _quantity(lambda run: run.part.qr_x1.kappa, "kappa_X1")
    kappa_V2: float = _quantity(lambda run: run.part.qr_v2.kappa, "kappa_V2")
    dA_spec: float = _quantity(lambda run: run.da_norms[0])
    dA_frob: float = _quantity(lambda run: run.da_norms[1])
    classical_value: float = _quantity(lambda run: run.classical[0], "classical")
    classical_valid: bool = _quantity(lambda run: run.classical[1])
    new_value_perj: float = _quantity(lambda run: run.reported_bound[0], "new_perj")
    new_value_dl: float = _quantity(lambda run: run.reported_bound[1], "new_dl")
    sep_frob: float = _quantity(lambda run: run.sep_frob)
    sep_lower: float = _quantity(lambda run: run.sep_lower)
    stewart_condition_ok: bool = _quantity(lambda run: run.stewart_condition_ok)
    measured_sin: float = _quantity(lambda run: run.measured_sin, "measured_sin")
    gap_ok: bool = _quantity(lambda run: run.gap_ok)
    dominance_ok: bool = _quantity(lambda run: run.measured_sin <= run.reported_bound[0])
    match_strategy: str = _quantity(lambda run: "same-selector"
                                    if isinstance(run.match, SameSelector)
                                    else "nearest-assignment")


# sweep column -> its field's reader of ``Analysis``, in field order
COLUMN_READERS = {f.metadata["column"]: f.metadata["read"]
                  for f in fields(BoundReport) if f.metadata["column"] is not None}


@dataclass(frozen=True)
class Analysis:
    """One pass of eig -> partition -> match over (A, dA, selector).

    Holds A and its partition, dA and the matched partition of A + dA, the
    match strategy, and ||A||_2 as measured by ``eig``.  Each derived
    quantity is computed on first access and kept.  ``oracles.OracleContext``
    is this record with the identity verifiers' blocks added.
    """

    a: np.ndarray
    da: np.ndarray
    part: SpectralPartition
    part_tilde: SpectralPartition
    match: MatchStrategy
    a_norm: float

    def perturb(self, da) -> Analysis:
        """The analysis of A + ``da``: reruns only eig(A + dA) and the match.
        Raises OverflowError when an entry of A + dA overflows."""
        da = as_matrix(da, "dA")
        if self.a.shape != da.shape:
            raise ShapeMismatch(f"analyze: A is {self.a.shape} but dA is {da.shape}")
        with np.errstate(over="ignore"):
            a_tilde = self.a + da
        if not np.isfinite(a_tilde).all():
            raise OverflowError("A+dA: an entry overflows the largest float")
        part_t = match_partition(eig(a_tilde), self.part, self.match)
        if part_t.r != self.part.r:
            raise ShapeMismatch(f"match(A+dA): block sizes differ (A+dA keeps {part_t.r}, "
                                f"A keeps {self.part.r}); try --match nearest")
        return replace(self, da=da, part_tilde=part_t)

    @functools.cached_property
    def _in_range(self) -> tuple[int, np.ndarray, float, float]:
        """(e, gaps, a, ||dA||_F), the last three times 2**-e, where 2**-e
        brings ||A||_2, ||dA||_2 and ||dA||_F into range
        (``linalg._into_safe_range``).  No eigenvalue of A or A + dA exceeds
        ||A||_2 + ||dA||_2 in modulus, so there neither a nor a gap
        overflows, and the product bound, a function of their ratios, is
        evaluated on them."""
        e, (scaled,) = _into_safe_range(np.array([self.a_norm, *self.da_norms]))
        a_norm, da_spec, da_frob = scaled.tolist()
        l1t, l2 = (_times_power_of_two(lam, -e)
                   for lam in (self.part_tilde.lambda1, self.part.lambda2))
        gaps = np.min(np.abs(l1t[:, np.newaxis] - l2[np.newaxis, :]), axis=1)
        return e, gaps, a_norm + da_spec + float(np.max(np.abs(l2))), da_frob

    @functools.cached_property
    def gaps(self) -> np.ndarray:
        """Distance from each perturbed kept eigenvalue to the complement set,
        inf where it overflows."""
        with np.errstate(over="ignore"):
            return _times_power_of_two(self._in_range[1], self._in_range[0])

    @functools.cached_property
    def delta_lambda(self) -> float:
        return float(np.min(self.gaps))

    @functools.cached_property
    def da_norms(self) -> tuple[float, float]:
        """(||dA||_2, ||dA||_F)."""
        return norms(self.da)

    @functools.cached_property
    def a_scale(self) -> float:
        """a = ||A||_2 + ||dA||_2 + rho(L2) of the product bound, inf where it
        overflows."""
        return _times_power_of_two(self._in_range[2], self._in_range[0])

    @functools.cached_property
    def product_bound(self) -> tuple[float, float]:
        """(perj, dl), inf where the product overflows; raises GapViolated
        when the post-perturbation gap is zero."""
        if self.delta_lambda == 0.0:
            raise GapViolated("analyze: post-perturbation gap is zero")
        _, gaps, a, da_frob = self._in_range
        if da_frob == 0.0:
            return 0.0, 0.0
        lead = self.part.qr_v2.kappa * da_frob / a
        with np.errstate(over="ignore"):
            perj = lead * float(np.prod(1.0 + a / gaps))
        try:
            dl = lead * (1.0 + a / float(np.min(gaps))) ** gaps.shape[0]
        except OverflowError:  # a float power raises where a product gives inf
            dl = math.inf
        return float(perj), float(dl)

    @functools.cached_property
    def gap_ok(self) -> bool:
        """The product bound's assumption: the post-perturbation gap is nonzero."""
        return self.delta_lambda > 0.0

    @functools.cached_property
    def reported_bound(self) -> tuple[float, float]:
        """``product_bound``, or (inf, inf) where ``gap_ok`` is false."""
        return self.product_bound if self.gap_ok else (math.inf, math.inf)

    @functools.cached_property
    def delta1(self) -> float:
        """``partition.gap_delta1`` of A's split."""
        return gap_delta1(self.part.lambda1, self.part.lambda2)

    @functools.cached_property
    def disk_gap(self) -> tuple[float, complex]:
        """(delta0, t0*) of ``partition.gap_delta0``."""
        return gap_delta0(self.part.lambda1, self.part.lambda2)

    @functools.cached_property
    def classical(self) -> tuple[float, bool]:
        """(value, valid) of ``classical_bound``."""
        return classical_bound(self.part, self.da_norms[0], self.disk_gap[0])

    @functools.cached_property
    def sep_frob(self) -> float:
        """``sep_frobenius`` of the blocks of A projected on X1 and on V2;
        the blocks are built here and not kept."""
        part = self.part
        return sep_frobenius(part.qr_x1.q.conj().T @ self.a @ part.qr_x1.q,
                             part.qr_v2.q.conj().T @ self.a @ part.qr_v2.q)

    @functools.cached_property
    def sep_lower(self) -> float:
        """``sep_lower_bound`` from delta0 and the two bases' condition numbers."""
        return sep_lower_bound(self.disk_gap[0], self.part.qr_x1.kappa,
                               self.part.qr_v2.kappa)

    @functools.cached_property
    def stewart_condition_ok(self) -> bool:
        """``stewart_condition`` on ||dA||_2, ||A||_2 and ``sep_frob``."""
        return stewart_condition(self.da_norms[0], self.a_norm, self.sep_frob)

    @functools.cached_property
    def measured_sin(self) -> float:
        return sin_theta_norm(self.part.qr_x1.q, self.part_tilde.qr_x1.q)


def analyze(a_mat, da, selector: Selector, match: MatchStrategy | None = None) -> Analysis:
    """eig(A) and its partition, then ``perturb`` of the dA = 0 analysis (whose
    matched partition is A's own) by ``da``.  ``match`` defaults to
    reapplying ``selector`` to the perturbed spectrum.

    Only the partition and ||A||_2 are kept from eig(A): its decomposition is
    released before eig(A + dA) runs, so the two are never alive together."""
    a_mat = as_matrix(a_mat, "A")
    ed = eig(a_mat)
    part, a_norm = partition(ed, selector), ed.a_norm
    del ed
    return Analysis(a=a_mat, da=np.zeros_like(a_mat), part=part, part_tilde=part,
                    match=match or SameSelector(selector), a_norm=a_norm).perturb(da)


def new_bound(a_mat, da, part: SpectralPartition,
              part_tilde: SpectralPartition) -> tuple[float, float]:
    """Product bound in per-eigenvalue and uniform-gap form of given
    partitions, read from their ``Analysis``.

    Returns (perj, dl) with perj <= dl; raises GapViolated when the
    post-perturbation gap is zero.
    """
    a_mat = as_matrix(a_mat, "A")
    da = as_matrix(da, "dA")
    if part.r != part_tilde.r:
        raise ShapeMismatch("new_bound: partitions have different block sizes")
    return Analysis(a=a_mat, da=da, part=part, part_tilde=part_tilde, match=None,
                    a_norm=float(np.linalg.norm(a_mat, 2))).product_bound


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
# a sep of nearest triangles is accepted when the dropped parts' Frobenius
# norms sum to at most this fraction of it
SEP_TRIANGLE_TOL = 1e-10
_SEP_SEED = 0x5EB  # fixes the Lanczos start and restart vectors
# rows of the Krylov basis buffer at the start, and added each time it fills
_SEP_BASIS_ROWS, _SEP_BASIS_CHUNK = 16, 8


def _sep_vectors(size: int):
    """Fixed pseudo-random complex vectors of length ``size``, real and
    imaginary parts uniform in (-1/2, 1/2): the first starts Lanczos, the
    rest restart it."""
    gen = SplitMix64(_SEP_SEED)
    while True:
        yield (gen.uniforms(2 * size) - 0.5).view(np.complex128)


def _project(basis, w):
    """basis.conj() @ w without a conjugated copy of the basis: the same
    product on the same layout, conjugated exactly, so the same bits."""
    return (basis @ w.conj()).conj()


def _orthogonalize(w, basis):
    w = w - basis.T @ _project(basis, w)
    return w - basis.T @ _project(basis, w)  # second Gram-Schmidt pass


def sep_frobenius(l1, l2) -> float:
    """Smallest singular value of S: T -> T L1 - L2 T on vectorized T.

    This is the Frobenius-geometry surrogate for the spectral-norm
    separation; the exact spectral-norm version has no finite closed form.
    S keeps its singular values when L1 and L2 are replaced by unitarily
    similar blocks R1 and R2, and when both are upper triangular a product
    with S^-* S^-1 is two triangular Sylvester solves (Bartels-Stewart).
    Lanczos on S^-* S^-1 starts from a fixed pseudo-random vector, restarts
    orthogonally to its basis when the Krylov space turns invariant, and
    stops once the Ritz value of the current Krylov sequence rises by at most
    1e-15 relative.

    R1 and R2 are first each block's nearest triangle: its upper triangle
    when the strict lower part is no larger in Frobenius norm than the strict
    upper part, and otherwise its lower triangle reversed, a permutation
    similarity that makes it upper triangular.  The blocks of a report are
    triangular up to rounding, so this costs no factorization: with
    X1 = Q_X1 R, Q_X1* A Q_X1 = R Lambda1 R^-1 is upper triangular, and
    Q_V2* A Q_V2 = R_V^-* Lambda2 R_V^* lower triangular.  Dropping parts of
    Frobenius norm d1 and d2 moves sigma_min(S) by at most d1 + d2 (Weyl), so
    the value is accepted when it is finite, positive and at least
    (d1 + d2) / ``SEP_TRIANGLE_TOL``: it is then within ``SEP_TRIANGLE_TOL``
    relative of the blocks' own sep; the iteration stops as soon as a Ritz
    value shows that it cannot be.  Otherwise R1 and R2 are the complex
    Schur factors of L1 and L2, and the result is exactly 0.0 when their
    computed diagonals share a value and nan when ``SEP_MAX_ITER`` steps do
    not converge.

    sep(c L1, c L2) = c sep(L1, L2).  Blocks whose largest real or imaginary
    part lies outside 2**±256 are first scaled by a power of two, which is
    exact, to bring that part into [1/2, 1) (``linalg._into_safe_range``), and
    the result is scaled back; otherwise the Ritz value 1/sep^2 would under-
    or overflow.
    """
    exponent, blocks = _into_safe_range(_square(l1, "L1"), _square(l2, "L2"))
    return _times_power_of_two(_sep_frobenius(*blocks), exponent)


def _nearest_triangle(l: np.ndarray) -> tuple[np.ndarray, float]:
    """(upper-triangular block unitarily similar to ``l`` up to the dropped
    part, that part's Frobenius norm), in the Fortran order ``ztrsyl`` reads
    without a copy."""
    upper, lower = np.linalg.norm(np.triu(l, 1)), np.linalg.norm(np.tril(l, -1))
    if lower <= upper:
        return np.asfortranarray(np.triu(l)), float(lower)
    return np.asfortranarray(np.tril(l)[::-1, ::-1]), float(upper)


def _sep_frobenius(l1: np.ndarray, l2: np.ndarray) -> float:
    (r1, d1), (r2, d2) = _nearest_triangle(l1), _nearest_triangle(l2)
    sep = _sep_triangular(r1, r2, floor=(d1 + d2) / SEP_TRIANGLE_TOL)
    if 0.0 < sep < math.inf and d1 + d2 <= SEP_TRIANGLE_TOL * sep:
        return sep
    return _sep_schur(l1, l2)


def _sep_schur(l1: np.ndarray, l2: np.ndarray) -> float:
    """sep through the complex Schur factors of both blocks."""
    return _sep_triangular(scipy.linalg.schur(l1, output="complex")[0],
                           scipy.linalg.schur(l2, output="complex")[0])


def _sep_triangular(r1: np.ndarray, r2: np.ndarray, floor: float = 0.0) -> float:
    """sep of upper-triangular blocks: 0.0 when their diagonals share a value,
    nan when Lanczos does not converge in ``SEP_MAX_ITER`` steps.  Every Ritz
    value of S^-* S^-1 is at most 1/sep^2, so once one puts sep below
    ``floor`` the iteration stops and returns that bound, 1/sqrt(Ritz value).

    The Krylov vectors are the rows of one buffer that grows in place by
    ``_SEP_BASIS_CHUNK`` rows when it fills, so no step holds two copies."""
    if np.any(np.diagonal(r2)[:, np.newaxis] == np.diagonal(r1)[np.newaxis, :]):
        return 0.0
    m, r = r2.shape[0], r1.shape[0]
    steps = min(m * r, SEP_MAX_ITER)
    vectors = _sep_vectors(m * r)
    rows = min(steps, _SEP_BASIS_ROWS)
    basis = np.empty((rows, m * r), dtype=np.complex128)
    ritz_matrix = np.zeros((rows, rows), dtype=np.complex128)  # lower triangle used
    start, lam = 0, 0.0  # first basis index of the current Krylov sequence, its Ritz value
    w = next(vectors)
    b = np.linalg.norm(w)
    for k in range(steps):
        if k == rows:
            rows = min(rows + _SEP_BASIS_CHUNK, steps)
            basis.resize((rows, m * r))  # in place: no view of the buffer is alive
            grown = np.zeros((rows, rows), dtype=np.complex128)
            grown[:k, :k] = ritz_matrix
            ritz_matrix = grown
        basis[k] = w / b
        # info = 1 (LAPACK perturbed near-common eigenvalues) is accepted on
        # purpose: the solve is then approximate, and sep is of rounding size
        y, scale, _ = ztrsyl(r2, r1, basis[k].reshape(m, r), isgn=-1)
        w, scale2, _ = ztrsyl(r2, r1, y / scale, trana="C", tranb="C", isgn=-1)
        w = w.reshape(-1) / scale2
        ritz_matrix[k, : k + 1] = basis[: k + 1] @ w.conj()  # conj(basis.conj() @ w)
        w = _orthogonalize(w, basis[: k + 1])
        ritz = float(np.linalg.eigvalsh(ritz_matrix[start : k + 1, start : k + 1])[-1])
        if 1.0 / math.sqrt(ritz) < floor:
            return 1.0 / math.sqrt(ritz)
        if ritz - lam <= 1e-15 * ritz or k + 1 == m * r:
            return 1.0 / math.sqrt(np.linalg.eigvalsh(ritz_matrix[: k + 1, : k + 1])[-1])
        b = np.linalg.norm(w)
        if b <= 1e-15 * ritz:  # invariant Krylov space: restart orthogonally to it
            w = _orthogonalize(next(vectors), basis[: k + 1])
            b = np.linalg.norm(w)
            start, ritz = k + 1, 0.0
        lam = ritz
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
                match: MatchStrategy | None = None) -> BoundReport:
    """Run the whole pipeline on (A, dA, selector) and read every field of
    the report from its ``Analysis``, by the field's reader and in field
    order.

    A zero post-perturbation gap does not raise here: the bounds become +inf
    and ``gap_ok`` is cleared, so callers can still serialize the report.
    Sep is read before the measured distance, so that of two stages that
    fail the earlier one raises.
    """
    run = analyze(a_mat, da, selector, match)
    return BoundReport(**{f.name: f.metadata["read"](run) for f in fields(BoundReport)})
