"""Centralized numerical tolerances.

One frozen record of the cut-offs and bands that judge the input.  CLI
``--tol`` overrides produce a modified copy; library defaults never mutate.
Thresholds that a looser value could only let a failed computation pass are
constants beside their checks: the self-checks on the program's own
arithmetic (``linalg.EIG_TOL``, ``angles.ORTH_TOL``, ``angles.CROSS_TOL``)
and the verification suites' pass and filter criteria (in ``verify``).
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    rank_tol: float = 1e-13       # sigma_min/sigma_max below this: rank deficient
    kappa_cap: float = 1e13       # eigenvector basis condition beyond this: not diagonalizable
    disk_tol: float = 1e-9        # disk-selector boundary band, scaled by radius
    assign_tol: float = 1e-12     # assignment ambiguity, scaled by spectral scale
    contour_margin: float = 0.05  # eigenvalue clearance from the circle, scaled by radius
    resolvent_tol: float = 1e-10  # minimum node-to-eigenvalue distance, scaled by radius

    def override(self, **updates) -> "Tolerances":
        """Return a copy with the given fields replaced (values coerced to float)."""
        fields = {f.name for f in dataclasses.fields(self)}
        coerced = {}
        for key, val in updates.items():
            if key not in fields:
                raise KeyError(f"unknown tolerance {key!r}")
            coerced[key] = float(val)
        return dataclasses.replace(self, **coerced)


DEFAULT_TOL = Tolerances()
