"""Density matrices of N-level systems and their Bloch-vector parameterization.

A state is written as `rho = (1/N) (I + sqrt(N(N-1)/2) xi . g)` where `g` runs
over the Gell-Mann generators; the real vector `xi` of length `N**2 - 1` is
the (generalized) Bloch vector.  With this normalization pure states sit on
the unit sphere `|xi| = 1`, but for N > 2 not every point of the unit ball is
a state -- positivity always has to be checked.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ._streams import _as_array, _as_index, _check_records, _freeze
from .algebra import SymmetricStructureTensor, _hermitian, expand_in_basis, gell_mann_basis
from .config import TOLERANCES
from .errors import InvalidStateError, ValidationError

__all__ = [
    "DensityState",
    "bloch_scale",
    "rho_from_bloch",
    "bloch_from_rho",
    "qutrit_bloch_constraints",
    "state_as_dict",
    "state_from_dict",
]


@dataclass(frozen=True, eq=False)
class DensityState:
    """The density matrix `rho` with Bloch vector `bloch`, built on construction.

    Construction checks that N is an integer of 2 or more and `bloch` a finite vector of length `N**2 - 1`,
    and raises `InvalidStateError` (carrying the offending eigenvalue) if `rho` is not positive semidefinite
    within the spectral tolerance; states are never silently clamped.
    """

    dim_n: int
    bloch: np.ndarray
    rho: np.ndarray = field(init=False)

    def __post_init__(self):
        n = _as_index(self.dim_n, "N", 2)
        xi = _as_array(self.bloch, "Bloch vector", (n * n - 1,))
        rho = (np.eye(n) + bloch_scale(n) * np.einsum("a,aij->ij", xi, gell_mann_basis(n).generators)) / n
        lo = float(np.linalg.eigvalsh(rho)[0])
        if lo < -TOLERANCES.spectral:
            raise InvalidStateError(f"Bloch vector yields a non-positive matrix (min eigenvalue {lo:.3e})",
                                    min_eigenvalue=lo)
        _freeze(self, dim_n=n, bloch=xi, rho=rho)


def bloch_scale(n: int) -> float:
    """The Bloch normalization factor `sqrt(N(N-1)/2)`; 1 for a qubit, `sqrt(3)` for a qutrit."""
    n = _as_index(n, "N", 2)
    return np.sqrt(n * (n - 1) / 2.0)


def rho_from_bloch(n: int, xi: np.ndarray) -> DensityState:
    """The state with Bloch vector `xi`, checked as `DensityState` checks it."""
    return DensityState(dim_n=n, bloch=xi)


def bloch_from_rho(matrix: np.ndarray) -> np.ndarray:
    """Recover the Bloch vector of a density matrix.

    The input must be Hermitian with unit trace, and positive semidefinite
    within tolerance as `rho_from_bloch` checks it on the rebuilt matrix;
    `rho_from_bloch(n, bloch_from_rho(rho))` reproduces `rho` exactly up to round-off.
    """
    matrix = _hermitian(matrix, "density matrix")
    n = matrix.shape[0]
    if abs(np.trace(matrix).real - 1.0) > TOLERANCES.algebraic:
        raise ValidationError(f"density matrix must have unit trace, got {np.trace(matrix).real!r}")
    return rho_from_bloch(n, expand_in_basis(matrix, gell_mann_basis(n))[0] * (n / bloch_scale(n))).bloch


def qutrit_bloch_constraints(
    xi: np.ndarray, d: SymmetricStructureTensor
) -> tuple[float, float, bool]:
    """Evaluate the two polynomial positivity constraints of a qutrit Bloch vector.

    Returns `(c1, c2, ok)` with `c1 = |xi|**2` and
    `c2 = |xi|**2 - (2/sqrt(3)) sum d[a,b,c] xi_a xi_b xi_c`; the vector
    parameterizes a state exactly when `0 <= c1 <= 1` and `0 <= c2 <= 1/3`
    (`c2` equals `1/3 - 9 det(rho)`, so its upper bound is positivity of the
    determinant).  The comparison uses the algebraic tolerance so boundary
    states (pure states, rank-2 states) are accepted despite round-off.
    """
    xi = _as_array(xi, "qutrit Bloch vector", (8,))
    if _check_records((d, SymmetricStructureTensor)) != 3:
        raise ValidationError(f"need the N=3 structure tensor, got N={d.dim_n}")
    c1 = float(xi @ xi)
    cubic = float(np.einsum("abc,a,b,c->", d.d, xi, xi, xi))
    c2 = c1 - 2.0 / np.sqrt(3.0) * cubic
    tol = TOLERANCES.algebraic
    ok = (c1 <= 1.0 + tol) and (-tol <= c2 <= 1.0 / 3.0 + tol)
    return c1, c2, ok


def state_as_dict(state: DensityState) -> dict:
    """JSON-friendly view of a state: `{"n": ..., "bloch": [...]}`."""
    _check_records((state, DensityState))
    return {"n": state.dim_n, "bloch": [float(x) for x in state.bloch]}


def state_from_dict(payload: dict) -> DensityState:
    """Inverse of `state_as_dict`, with full validation."""
    try:
        n, bloch = _as_index(payload["n"], "n", 2), payload["bloch"]  # a DomainError is reported as a malformed payload
    except (KeyError, TypeError, ValueError) as exc:
        raise ValidationError(f"malformed state payload: {exc}") from exc
    return rho_from_bloch(n, bloch)
