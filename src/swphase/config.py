"""Centralized numerical tolerances.

Every module reads its thresholds from the single `TOLERANCES` record below
instead of sprinkling magic numbers, so the tolerance policy of the whole
package can be audited (or tightened) in one place.
"""
from __future__ import annotations

from dataclasses import dataclass

__all__ = ["TOLERANCES", "Tolerances"]


@dataclass(frozen=True)
class Tolerances:
    """Numerical thresholds used across the package.

    algebraic       -- identities that hold exactly in real arithmetic
                       (trace expansions, closed-form equalities, residues).
    spectral        -- eigenvalue-level checks (positivity, unitarity of
                       supplied matrices, master-equation residuals of
                       assembled kernels).
    degeneracy_gap  -- absolute gap below which two kernel eigenvalues are
                       treated as equal when grouping multiplicities.
    """

    algebraic: float = 1e-12
    spectral: float = 1e-10
    degeneracy_gap: float = 1e-9


TOLERANCES = Tolerances()
