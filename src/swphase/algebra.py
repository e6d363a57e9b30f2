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
    """Orthogonal Hermitian traceless basis of su(N), held as its N alone; construction checks N.

    `generators`, built when first read, has shape `(N**2 - 1, N, N)` and holds the generator with 1-based
    label `a`, normalized to `tr(g_a g_b) = 2 delta_ab`, at `a - 1`; `cartan_indices` are the diagonal ones.
    """

    dim_n: int

    def __post_init__(self):
        n = _as_index(self.dim_n, "N", 2)
        if 16 * (n * n - 1) * n * n > np.iinfo(np.intp).max:  # the bytes of its complex generator array
            raise DomainError(f"N={n} is too large for its Gell-Mann basis: its generator array exceeds np.intp in bytes")
        object.__setattr__(self, "dim_n", n)

    @property
    def cartan_indices(self) -> tuple[int, ...]:
        return tuple(s * s - 1 for s in range(2, self.dim_n + 1))

    def generator(self, label: int) -> np.ndarray:
        """Return the generator with 1-based `label`."""
        if _as_index(label, "generator label", 1) > self.dim_n**2 - 1:
            raise DomainError(f"generator label must be in 1..{self.dim_n ** 2 - 1}, got {label}")
        return self.generators[label - 1]

    @cached_property
    def cartan_diagonals(self) -> np.ndarray:
        """Real diagonals of the Cartan generators, shape `(N-1, N)`, read-only."""
        s = np.arange(2, self.dim_n + 1)
        diag = np.tri(self.dim_n - 1, self.dim_n)  # row s - 2: sqrt(2/(s(s-1))) (1, ..., 1, -(s-1), 0, ..., 0)
        diag[s - 2, s - 1] = 1.0 - s
        diag *= np.sqrt(2.0 / (s * (s - 1)))[:, None]
        diag.setflags(write=False)
        return diag

    @cached_property
    def generators(self) -> np.ndarray:
        """The complex generator array, read-only; an N whose array cannot be allocated is a `DomainError`."""
        n = self.dim_n
        try:
            mats = np.zeros((n * n - 1, n, n), dtype=complex)
        except MemoryError as exc:
            raise DomainError(f"N={n} is too large for its Gell-Mann basis: {exc}") from None
        r, c = np.tril_indices(n, -1)  # levels c < r, 0-based, couple in the 0-based labels a and a + 1
        a = r * r - 1 + 2 * c
        mats[a, c, r] = mats[a, r, c] = 1.0
        mats[a + 1, c, r] = -1.0j
        mats[a + 1, r, c] = 1.0j
        mats[np.array(self.cartan_indices)[:, None] - 1, range(n), range(n)] = self.cartan_diagonals
        mats.setflags(write=False)
        return mats


@dataclass(frozen=True)
class SymmetricStructureTensor:
    """Totally symmetric structure constants `d[a,b,c] = tr({g_a, g_b} g_c) / 4`."""

    dim_n: int
    d: np.ndarray


@lru_cache(maxsize=None, typed=True)  # typed, so that 2.0 cannot hit the entry of 2
def gell_mann_basis(n: int) -> GellMannBasis:
    """The generalized Gell-Mann basis of su(N), cached: the Pauli matrices at N=2, the eight Gell-Mann ones at N=3.

    An N whose `(N**2 - 1, N, N)` generator array numpy refuses is a `DomainError`.
    """
    return GellMannBasis(n)


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
