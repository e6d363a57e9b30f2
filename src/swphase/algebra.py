"""Generalized Gell-Mann bases of su(N) and trace-form expansion utilities.

The generator ordering follows the standard generalized Gell-Mann convention:
for each level `s = 2..N` the symmetric and antisymmetric off-diagonal pairs
coupling levels `k < s` to `s` come first, followed by the diagonal generator
`sqrt(2 / (s(s-1))) * diag(1, ..., 1, -(s-1), 0, ..., 0)`.  With this ordering
the diagonal (Cartan) generators sit at the 1-based labels `s**2 - 1`, i.e.
3, 8, 15, ... -- for N=3 the basis is exactly the eight Gell-Mann matrices in
their conventional order.
"""
from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, lru_cache

import numpy as np

from ._streams import _as_index
from .config import TOLERANCES
from .errors import DomainError, ValidationError

__all__ = [
    "GellMannBasis",
    "SymmetricStructureTensor",
    "gell_mann_basis",
    "symmetric_structure_constants",
    "expand_in_basis",
]


@dataclass(frozen=True)
class GellMannBasis:
    """Orthogonal Hermitian traceless basis of su(N).

    `generators` has shape `(N**2 - 1, N, N)`; `generators[a - 1]` is the
    generator with 1-based label `a`, normalized to `tr(g_a g_b) = 2 delta_ab`.
    `cartan_indices` lists the 1-based labels of the diagonal generators.
    """

    dim_n: int
    generators: np.ndarray
    cartan_indices: tuple[int, ...]

    def generator(self, label: int) -> np.ndarray:
        """Return the generator with 1-based `label`."""
        if not 1 <= label <= self.dim_n**2 - 1:
            raise DomainError(f"generator label must be in 1..{self.dim_n ** 2 - 1}, got {label}")
        return self.generators[label - 1]

    @cached_property
    def cartan_diagonals(self) -> np.ndarray:
        """Real diagonals of the Cartan generators, shape `(N-1, N)`, read-only."""
        diag = np.array([np.diag(self.generators[c - 1]).real for c in self.cartan_indices])
        diag.setflags(write=False)
        return diag


@dataclass(frozen=True)
class SymmetricStructureTensor:
    """Totally symmetric structure constants `d[a,b,c] = tr({g_a, g_b} g_c) / 4`."""

    dim_n: int
    d: np.ndarray


@lru_cache(maxsize=None, typed=True)  # typed, so that 2.0 cannot hit the entry of 2
def gell_mann_basis(n: int) -> GellMannBasis:
    """Construct the generalized Gell-Mann basis of su(N).

    For `n == 2` this yields the three Pauli matrices, for `n == 3` the eight
    Gell-Mann matrices in conventional order.  The result is cached and its
    arrays are read-only.  An N whose `(N**2 - 1, N, N)` array numpy refuses is a `DomainError`.
    """
    n = _as_index(n, "N", 2)
    try:
        mats = np.zeros((n * n - 1, n, n), dtype=complex)
    except (ValueError, MemoryError) as exc:
        raise DomainError(f"N={n} is too large for its Gell-Mann basis: {exc}") from None
    cartan: list[int] = []
    a = 0
    for s in range(2, n + 1):
        for k in range(1, s):
            mats[a, k - 1, s - 1] = 1.0
            mats[a, s - 1, k - 1] = 1.0
            mats[a + 1, k - 1, s - 1] = -1.0j
            mats[a + 1, s - 1, k - 1] = 1.0j
            a += 2
        scale = np.sqrt(2.0 / (s * (s - 1)))
        for i in range(s - 1):
            mats[a, i, i] = scale
        mats[a, s - 1, s - 1] = -scale * (s - 1)
        a += 1
        cartan.append(s * s - 1)
    mats.setflags(write=False)
    return GellMannBasis(dim_n=n, generators=mats, cartan_indices=tuple(cartan))


def symmetric_structure_constants(basis: GellMannBasis) -> SymmetricStructureTensor:
    """Compute the symmetric structure constants of `basis`.

    Uses the defining anticommutator trace `d[a,b,c] = tr({g_a, g_b} g_c) / 4`,
    which is real and invariant under all index permutations.  For N=2 the
    tensor vanishes identically.
    """
    g = basis.generators
    prod = np.einsum("aij,bjk->abik", g, g)
    anti = prod + np.transpose(prod, (1, 0, 2, 3))
    d = np.einsum("abik,cki->abc", anti, g).real / 4.0
    d.setflags(write=False)
    return SymmetricStructureTensor(dim_n=basis.dim_n, d=d)


def _hermitian(m, name: str, n: int | None = None) -> np.ndarray:
    """`m` as a complex array, after checking it is a finite Hermitian square matrix (N x N when `n` is given).

    The one Hermitian check of the package: raises `ValidationError` naming
    `name` on a wrong shape, a non-finite entry or an anti-Hermitian part
    above the algebraic tolerance.
    """
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1] or (n is not None and m.shape[0] != n):
        want = "square" if n is None else f"{n}x{n}"
        raise ValidationError(f"{name} must be a {want} matrix, got shape {m.shape}")
    # checked first, so that a NaN or inf entry is reported as such, not as an anti-Hermitian part
    if not np.all(np.isfinite(m)):
        raise ValidationError(f"{name} has non-finite entries")
    if not np.all(np.abs(m - m.conj().T) <= TOLERANCES.algebraic):
        raise ValidationError(f"{name} is not Hermitian within tolerance")
    return m


def expand_in_basis(m: np.ndarray, basis: GellMannBasis) -> tuple[np.ndarray, float]:
    """Expand a Hermitian matrix as `(tr(m)/N) I + sum_a c_a g_a`.

    Returns `(coefficients, trace_part)` with `c_a = tr(m g_a) / 2` and
    `trace_part = tr(m) / N`.  Raises `ValidationError` if `m` is not
    finite, not Hermitian within the algebraic tolerance or has the wrong shape.
    """
    n = basis.dim_n
    m = _hermitian(m, "matrix", n)
    coeffs = np.einsum("ij,aji->a", m, basis.generators).real / 2.0
    coeffs.setflags(write=False)
    return coeffs, np.trace(m).real / n
