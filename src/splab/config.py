"""Centralized numerical tolerances.

One frozen record so that each class of test has a single knob. CLI ``--tol``
overrides produce a modified copy; library defaults never mutate.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass


@dataclass(frozen=True)
class Tolerances:
    tol_eig: float = 1e-10        # eigen residual, relative to ||A||
    tol_orth: float = 1e-12       # orthonormality defect, scaled by column count
    rank_tol: float = 1e-13       # sigma_min/sigma_max below this: rank deficient
    kappa_cap: float = 1e13       # eigenvector basis condition beyond this: not diagonalizable
    cross_tol: float = 1e-10      # agreement between equivalent sin-theta formulas
    disk_tol: float = 1e-9        # disk-selector boundary band, scaled by radius
    assign_tol: float = 1e-12     # assignment ambiguity, scaled by spectral scale
    contour_margin: float = 0.05  # eigenvalue clearance from the circle, scaled by radius
    resolvent_tol: float = 1e-10  # minimum node-to-eigenvalue distance, scaled by radius
    quad_tol: float = 1e-8        # residue-vs-quadrature agreement
    suite_kappa_cap: float = 1e6  # identity-suite filter on kappa2(R_V2)*kappa2(R_X1t)
    sigma_r_floor: float = 1e-280 # skip charpoly rows whose constant term underflows

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
