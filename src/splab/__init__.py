"""splab: invariant-subspace perturbation workbench.

Computes sin/tan-theta distances between invariant subspaces of
diagonalizable matrices under perturbation, evaluates the classical
separation-derived bound and a condition-number-free product bound side by
side, verifies the exact identities behind the product bound, and ships the
worked example families plus sweep harnesses used by the acceptance suite.
"""

import os

# One BLAS thread: a threaded BLAS splits its sums by the thread count, so the
# last bits of a printed number would depend on the host.  The count is read
# when the BLAS library loads, so this holds only if numpy is not loaded yet,
# as in the `splab` console script and `python -m splab.cli`.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
del _var

from .angles import SubspaceDistance, orth_complement, principal_angles, sin_theta_norm
from .bounds import (
    Analysis,
    BoundReport,
    analyze,
    classical_bound,
    full_report,
    new_bound,
    sep_frobenius,
    sep_lower_bound,
    stewart_condition,
)
from .linalg import (
    EigenDecomposition,
    QRFactors,
    as_matrix,
    cond2,
    eig,
    norms,
    qr_decompose,
)
from .oracles import (
    Contour,
    OracleContext,
    brute_force_sin_theta,
    build_oracle_context,
    contour_coupling_matrix,
    contour_projector,
    coupling_row,
    elementary_symmetric,
    enclosing_circle,
    hadamard_identity_residual,
    hadamard_identity_threshold,
    reciprocal_gap_matrix,
    residue_coupling_matrix,
)
from .partition import (
    Disk,
    IndexSet,
    NearestAssignment,
    SameSelector,
    SpectralPartition,
    TopKMagnitude,
    format_selector,
    gap_delta0,
    gap_delta1,
    match_partition,
    parse_selector,
    partition,
)
from .rng import SplitMix64, inverse_normal_cdf

__version__ = "0.1.0"
