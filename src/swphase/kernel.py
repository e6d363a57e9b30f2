"""Stratonovich-Weyl kernel spectra, the moduli space of kernel families, and kernel assembly.

Every admissible self-dual kernel obeys the pair of master equations
`tr(Delta) = 1` and `tr(Delta**2) = N`.  Expanding the diagonalized kernel
over the Cartan generators,

    P = (1/N) [ I + kappa * sum_s mu_{s**2-1} g_{s**2-1} ],
    kappa = sqrt(N (N**2 - 1) / 2),

the master equations hold exactly iff the coefficient vector `mu` lies on the
unit sphere of dimension N-2.  Unitary conjugation permutes the entries of
the induced diagonal, so unitarily inequivalent kernels form the fundamental
domain where the diagonal is sorted in descending order -- a spherical
polyhedron covering a `1/N!` fraction of the sphere.

For a qutrit the admissible spectra form the one-parameter family

    { (1 - nu + delta)/2, (1 - nu - delta)/2, nu },
    delta = sqrt((1 + nu)(5 - 3 nu)),  nu in [-1, -1/3],

whose endpoints are the two degenerate kernels: spectrum {1, 1, -1} at
nu = -1 and {5/3, -1/3, -1/3} at nu = -1/3.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from ._streams import _as_array, _as_index, _check_records, _freeze, _padded_budget
from ._streams import check_samples, check_seed, counter_normals, lane_buffer, over_slices
from .algebra import GellMannBasis, _hermitian, gell_mann_basis
from .config import TOLERANCES
from .errors import DomainError, ValidationError
from .group import PhasePoint

__all__ = [
    "ModuliPoint",
    "KernelSpectrum",
    "KernelMatrix",
    "QUTRIT_NU_MIN",
    "QUTRIT_NU_MAX",
    "moduli_point",
    "spectrum_from_moduli",
    "verify_master",
    "qutrit_spectrum",
    "qutrit_mu",
    "nu_from_zeta",
    "zeta_from_nu",
    "qutrit_det_invariant",
    "moduli_canonicalize",
    "moduli_domain_fraction",
    "isotropy_signature",
    "assemble_kernel",
    "kernel_diagonal",
]

QUTRIT_NU_MIN = -1.0
QUTRIT_NU_MAX = -1.0 / 3.0


@dataclass(frozen=True, eq=False)
class ModuliPoint:
    """A unit vector `mu` of Cartan coefficients selecting one kernel family member.

    Component `mu[s - 2]` multiplies the Cartan generator with label
    `s**2 - 1`, for `s = 2..N`.  Construction checks N >= 2, length N-1,
    finite entries and unit norm, and keeps a read-only copy of `mu`.
    """

    dim_n: int
    mu: np.ndarray

    def __post_init__(self):
        n = _as_index(self.dim_n, "N", 2)
        vec = _as_array(self.mu, "moduli vector", (n - 1,))
        norm = float(vec @ vec)
        if abs(norm - 1.0) > TOLERANCES.algebraic:
            raise ValidationError(f"moduli vector must be unit length, got |mu|^2 = {norm!r}")
        _freeze(self, dim_n=n, mu=vec)


@dataclass(frozen=True, eq=False)
class KernelSpectrum:
    """Kernel eigenvalues, sorted descending and read-only on construction, with their degeneracy bookkeeping.

    Construction takes two or more finite eigenvalues in any order.
    `multiplicities` counts equal eigenvalues (grouped with the degeneracy-gap
    tolerance); `flag_dims` lists the strictly increasing partial sums of the
    multiplicities with the final sum N omitted, i.e. the dimension signature
    of the flag manifold attached to the spectrum.  `degenerate` flags any
    repeated eigenvalue.
    """

    eigenvalues: np.ndarray
    multiplicities: tuple[int, ...] = field(init=False)
    flag_dims: tuple[int, ...] = field(init=False)
    degenerate: bool = field(init=False)

    def __post_init__(self):
        eigs = _as_array(self.eigenvalues, "kernel spectrum", (None,))
        if eigs.size < 2:
            raise ValidationError(f"a kernel spectrum needs two or more eigenvalues, got {eigs.tolist()}")
        eigs = np.sort(eigs)[::-1].copy()
        starts = np.flatnonzero(-np.diff(eigs) > TOLERANCES.degeneracy_gap) + 1  # of every group but the first
        _freeze(self, eigenvalues=eigs, flag_dims=tuple(int(k) for k in starts), degenerate=starts.size < eigs.size - 1,
                multiplicities=tuple(int(k) for k in np.diff(starts, prepend=0, append=eigs.size)))

    @property
    def dim_n(self) -> int:
        return len(self.eigenvalues)


@dataclass(frozen=True, eq=False)
class KernelMatrix:
    """A Hermitian Stratonovich-Weyl kernel `Delta` at one phase-space point; keeps a checked, read-only copy of `delta`."""

    dim_n: int
    delta: np.ndarray

    def __post_init__(self):
        n = _as_index(self.dim_n, "N", 2)
        _freeze(self, dim_n=n, delta=_hermitian(self.delta, "kernel matrix", n))


def moduli_point(n: int, mu: Sequence[float]) -> ModuliPoint:
    """Validate and wrap a moduli vector: length N-1 and unit norm required."""
    return ModuliPoint(dim_n=n, mu=mu)


def _kernel_scale(n: int) -> float:
    return math.sqrt(n * (n * n - 1) / 2.0)


def kernel_diagonal(p: ModuliPoint, basis: GellMannBasis) -> np.ndarray:
    """The unsorted diagonal of `P(mu)`; entries in the natural basis order."""
    _check_records((p, ModuliPoint), (basis, GellMannBasis))
    if basis.dim_n != p.dim_n:
        raise ValidationError(f"basis dimension {basis.dim_n} does not match moduli dimension {p.dim_n}")
    return (1.0 + _kernel_scale(p.dim_n) * p.mu @ basis.cartan_diagonals) / p.dim_n


def spectrum_from_moduli(p: ModuliPoint, basis: GellMannBasis) -> KernelSpectrum:
    """Kernel spectrum induced by a moduli point: the diagonal of `P(mu)`, sorted descending.

    Any unit `mu` satisfies both master equations identically, so the result
    always passes `verify_master` at round-off level.
    """
    return KernelSpectrum(kernel_diagonal(p, basis))


def _eigenvalues_of(spec: KernelSpectrum | Sequence[float]) -> np.ndarray:
    """The eigenvalues of a spectrum or of a raw candidate, which may hold a NaN or an infinity to be diagnosed."""
    return spec.eigenvalues if isinstance(spec, KernelSpectrum) else _as_array(spec, "eigenvalues", (None,), finite=False)


def verify_master(spec: KernelSpectrum | Sequence[float]) -> tuple[float, float]:
    """Residuals of the two master equations for any spectrum candidate.

    Returns `(|sum(pi) - 1|, |sum(pi**2) - N|)`; accepts raw eigenvalue
    sequences as well as `KernelSpectrum` values, so rejected candidates can
    be diagnosed too.
    """
    eigs = _eigenvalues_of(spec)
    n = len(eigs)
    return abs(float(eigs.sum()) - 1.0), abs(float(eigs @ eigs) - n)


def _check_nu(nu: float) -> float:
    """Validate the family parameter, snapping decimal round-off onto the endpoints.

    Inputs within the degeneracy-gap tolerance of an endpoint (for example the
    ten-digit decimal -0.3333333333) clamp onto it; anything farther outside
    the interval is a domain error.
    """
    nu = float(_as_array(nu, "nu", (), finite=False))  # the range check refuses NaN and inf
    gap = TOLERANCES.degeneracy_gap
    if not QUTRIT_NU_MIN - gap <= nu <= QUTRIT_NU_MAX + gap:
        raise DomainError(f"nu outside [-1, -1/3]: {nu!r}")
    return min(max(nu, QUTRIT_NU_MIN), QUTRIT_NU_MAX)


def qutrit_spectrum(nu: float) -> KernelSpectrum:
    """The qutrit kernel spectrum at family parameter `nu`.

    Endpoints are accepted and flagged degenerate: `nu = -1` gives
    {1, 1, -1} and `nu = -1/3` gives {5/3, -1/3, -1/3}.
    """
    nu = _check_nu(nu)
    delta = math.sqrt((1.0 + nu) * (5.0 - 3.0 * nu))
    return KernelSpectrum([(1.0 - nu + delta) / 2.0, (1.0 - nu - delta) / 2.0, nu])


def qutrit_mu(nu: float) -> ModuliPoint:
    """Cartan coefficients of the qutrit kernel family.

    `mu_3 = (sqrt(3)/4) sqrt((1+nu)(5-3nu))`, `mu_8 = (1 - 3 nu)/4`; the pair
    traces the unit-circle arc between (0, 1) at `nu = -1` and
    (sqrt(3)/2, 1/2) at `nu = -1/3`.
    """
    nu = _check_nu(nu)
    mu3 = math.sqrt(3.0) / 4.0 * math.sqrt((1.0 + nu) * (5.0 - 3.0 * nu))
    mu8 = (1.0 - 3.0 * nu) / 4.0
    vec = np.array([mu3, mu8])
    vec /= math.sqrt(float(vec @ vec))  # remove round-off drift from the exact unit norm
    return ModuliPoint(dim_n=3, mu=vec)


def nu_from_zeta(zeta: float) -> float:
    """Map the angular family parameter `zeta in [0, pi/3]` to `nu = 1/3 - (4/3) cos(zeta)`."""
    zeta = float(_as_array(zeta, "zeta", (), finite=False))  # as `_check_nu` takes nu
    if not 0.0 <= zeta <= math.pi / 3.0 + TOLERANCES.algebraic:
        raise DomainError(f"zeta outside [0, pi/3]: {zeta!r}")
    return 1.0 / 3.0 - 4.0 / 3.0 * math.cos(zeta)


def zeta_from_nu(nu: float) -> float:
    """Inverse of `nu_from_zeta` on the qutrit family interval."""
    nu = _check_nu(nu)
    return math.acos(min(1.0, max(-1.0, (1.0 - 3.0 * nu) / 4.0)))


def qutrit_det_invariant(spec: KernelSpectrum | Sequence[float]) -> float:
    """The cubic invariant `det(I/3 - Delta) = prod_i (1/3 - pi_i)` of a qutrit kernel.

    On the family spectrum at `nu(zeta)` it equals `(16/27) cos(3 zeta)`.
    """
    eigs = _eigenvalues_of(spec)
    if len(eigs) != 3:
        raise DomainError(f"determinant invariant needs a qutrit spectrum, got {len(eigs)} eigenvalues")
    return float(np.prod(1.0 / 3.0 - eigs))


def moduli_canonicalize(p: ModuliPoint, basis: GellMannBasis) -> tuple[ModuliPoint, list[int]]:
    """Map a moduli vector into the fundamental domain.

    Sorts the induced kernel diagonal into descending order and returns the
    unique moduli vector inducing the sorted diagonal, together with the
    sorting permutation (`permutation[i]` is the original position of entry
    `i`).  Idempotent, and the unordered spectrum is unchanged.
    """
    n = p.dim_n
    diag = kernel_diagonal(p, basis)
    order = np.argsort(-diag, kind="stable")
    sorted_diag = diag[order]
    # Invert P = (1/N)(I + kappa sum mu_s g_s) on the sorted diagonal:
    # the Cartan coefficient is tr(P g_s) * N / (2 kappa).
    coeffs = basis.cartan_diagonals @ sorted_diag
    mu = coeffs * n / (2.0 * _kernel_scale(n))
    mu /= math.sqrt(float(mu @ mu))
    return ModuliPoint(dim_n=n, mu=mu), [int(i) for i in order]


def moduli_domain_fraction(n: int, samples: int, seed: int) -> float:
    """Monte Carlo estimate of the fundamental-domain fraction of the moduli sphere.

    Samples `mu` uniformly on the unit sphere of dimension N-2 and counts the
    points whose induced kernel diagonal is already descending; the exact
    answer is `1/N!`.  For `n == 2` the sphere is the two-point set {-1, +1}
    with exactly one canonical point, so 1/2 is returned without sampling,
    after the same seed and sample-count checks as every other N.
    Hits are counted slice by slice by `_streams.over_slices` and summed as
    they come, so the result is exact and the same on any number of CPUs.
    """
    n = _as_index(n, "N", 2)
    check_seed(seed)
    check_samples(samples)
    if n == 2:
        return 0.5
    basis = gell_mann_basis(n)
    kappa = _kernel_scale(n)

    def hits(a: int, b: int) -> int:
        with lane_buffer((b - a) * _padded_budget(n - 1)) as buf:
            x = counter_normals(seed, a, b - a, n - 1, out=buf)
            mu = x / np.linalg.norm(x, axis=1, keepdims=True)
        diag = (1.0 + kappa * mu @ basis.cartan_diagonals) / n
        return int(np.all(np.diff(diag, axis=1) <= 0.0, axis=1).sum())

    return sum(over_slices(samples, hits)) / samples


def isotropy_signature(spec: KernelSpectrum | Sequence[float]) -> tuple[tuple[int, ...], int]:
    """Multiplicity pattern and phase-space dimension of a kernel spectrum.

    The isotropy group of a kernel with eigenvalue multiplicities
    `(k_1, ..., k_r)` is `U(k_1) x ... x U(k_r)`, so its phase space -- the
    flag manifold `U(N)/H` -- has real dimension `N**2 - sum(k_i**2)`:
    2 for a qubit, 6 for a generic qutrit kernel, 4 for the two degenerate
    qutrit kernels.
    """
    mult = KernelSpectrum(_eigenvalues_of(spec)).multiplicities
    return mult, sum(mult) ** 2 - sum(k * k for k in mult)  # sum(mult) is N


def assemble_kernel(p: ModuliPoint, u: np.ndarray, basis: GellMannBasis) -> KernelMatrix:
    """Assemble the kernel `Delta = U P(mu) U^dag` at the phase-space point `u`.

    `u` must be special-unitary within the spectral tolerance.  The result is
    Hermitian with `tr(Delta) = 1` and `tr(Delta**2) = N` by construction.
    """
    n = p.dim_n
    u = PhasePoint(n, u).u
    diag = kernel_diagonal(p, basis)
    delta = (u * diag) @ u.conj().T
    return KernelMatrix(dim_n=n, delta=(delta + delta.conj().T) / 2.0)
