"""Wigner quasiprobability evaluation, state reconstruction, and postulate checks.

The Wigner function of a state at a phase-space point is `W = tr(rho Delta)`;
with the Bloch expansion of both factors it collapses to the closed form

    W = (1/N) [ 1 + (N**2 - 1)/sqrt(N + 1) * (n, xi) ],

where `n` is the moduli-weighted sum of the Cartan adjoint vectors at the
point.  Reconstruction inverts the correspondence by the Haar average
`rho = N * E[ W(U) Delta(U) ]`, which the integral checks in this module
verify together with the norm, standardisation, traciality and covariance
identities.  All Monte Carlo routines follow the counter-based substream
contract: samples are seed-reproducible and independent of batch layout.
"""
from __future__ import annotations

import math
from functools import reduce
from typing import Callable, Mapping, NamedTuple

import numpy as np

from ._streams import _as_array, _as_index, _check_records, counter_normals, lane_buffer
from .algebra import GellMannBasis, _hermitian, gell_mann_basis
from .config import TOLERANCES
from .errors import DomainError, NumericalIntegrityError, ValidationError
from .group import (
    EulerSU2,
    EulerSU3,
    PhasePoint,
    _haar_average,
    _unitary,
    adjoint_vector,
    n3_closed_form,
    n8_closed_form,
    nprime_closed_form,
    qubit_frame,
)
from .kernel import (
    QUTRIT_NU_MAX,
    QUTRIT_NU_MIN,
    KernelMatrix,
    ModuliPoint,
    assemble_kernel,
    kernel_diagonal,
    qutrit_mu,
)
from .states import DensityState, rho_from_bloch

__all__ = [
    "wigner_value",
    "wigner_closed_form",
    "qubit_wf",
    "qutrit_wf",
    "EulerChart",
    "kernel_chart",
    "chart_wf",
    "reconstruct_state",
    "state_wf_sampler",
    "ReconstructionResult",
    "check_standardisation",
    "check_traciality",
    "check_covariance",
    "check_norm",
    "CheckResult",
    "NormCheckResult",
    "seeded_hermitian",
]


def wigner_value(state: DensityState, kernel: KernelMatrix) -> float:
    """Wigner function value `tr(rho Delta)`.

    Both factors are Hermitian, so the trace is real; an imaginary residue
    above the algebraic tolerance indicates corrupted inputs and raises
    `NumericalIntegrityError`.
    """
    _check_records((state, DensityState), (kernel, KernelMatrix))
    value = complex(np.einsum("ij,ji->", state.rho, kernel.delta))
    if abs(value.imag) > TOLERANCES.algebraic:
        raise NumericalIntegrityError(f"Wigner value has imaginary residue {value.imag:.3e}")
    return value.real


def _closed_form(xi: np.ndarray, frame: np.ndarray) -> float | np.ndarray:
    """`(1/N)[1 + (N**2-1)/sqrt(N+1) * (n, xi)]` for a frame `n` of shape `(..., N**2-1)`."""
    n = math.isqrt(xi.size + 1)
    # one (points, N**2-1) product for any frame: a stacked N-d matmul takes another loop and moves last bits
    w = (1.0 + (n * n - 1.0) / math.sqrt(n + 1.0) * (frame.reshape(-1, xi.size) @ xi)) / n
    return float(w[0]) if frame.ndim == 1 else w.reshape(frame.shape[:-1])


def wigner_closed_form(
    xi: np.ndarray, p: ModuliPoint, point: PhasePoint, basis: GellMannBasis
) -> float:
    """Closed-form Wigner value from a Bloch vector and a moduli point.

    Evaluates `(1/N)[1 + (N**2-1)/sqrt(N+1) * (n, xi)]` with
    `n = sum_s mu_s n^(s**2-1)(U)`; agrees with `wigner_value` on the
    assembled kernel to round-off.
    """
    kernel_diagonal(p, basis)  # checks that the moduli and the basis share N
    frame = sum(
        mu_s * adjoint_vector(point, label, basis)
        for mu_s, label in zip(p.mu, basis.cartan_indices)
    )
    return _closed_form(rho_from_bloch(p.dim_n, xi).bloch, frame)


def qubit_wf(r: np.ndarray, e: EulerSU2) -> float:
    """Qubit Wigner function `1/2 + (sqrt(3)/2) (r, n)` on the coset chart.

    The frame vector is `n = (-cos(alpha) sin(beta), sin(alpha) sin(beta),
    cos(beta))`.  Raises `InvalidStateError` if `|r| > 1`.
    """
    return _closed_form(rho_from_bloch(2, r).bloch, qubit_frame(e))


def _qutrit_frame(mu: np.ndarray, e: EulerSU3) -> np.ndarray:
    return mu[0] * n3_closed_form(e) + mu[1] * n8_closed_form(e)


def qutrit_wf(xi: np.ndarray, nu: float, e: EulerSU3, basis: GellMannBasis) -> float:
    """Qutrit Wigner function `1/3 + (4/3)[mu3 (n3, xi) + mu8 (n8, xi)]`.

    `(mu3, mu8) = qutrit_mu(nu)`.  At `nu = -1` the value depends only on
    (alpha, beta, gamma, theta), because `mu3 = 0` there.
    """
    _check_records((e, EulerSU3), (basis, GellMannBasis))
    return _closed_form(rho_from_bloch(3, xi).bloch, _qutrit_frame(qutrit_mu(nu).mu, e))


class EulerChart(NamedTuple):
    """Euler-angle coordinates of a kernel's phase space, with the moduli-weighted frame there."""

    name: str
    angles: tuple[str, ...]
    frame: Callable[[np.ndarray, EulerSU2 | EulerSU3], np.ndarray]
    euler: type = EulerSU3  # the record of the chart's angles, whose `dim_n` is the N of the kernels it serves


_FOUR_ANGLES = ("alpha", "beta", "gamma", "theta")
_QUBIT_CHART = EulerChart("qubit", ("alpha", "beta"), lambda mu, e: mu[0] * qubit_frame(e), EulerSU2)
_STANDARD_CHART = EulerChart("standard", ("alpha", "beta", "gamma", "a", "b", "theta"), _qutrit_frame)
_REDUCED_CHART = EulerChart("reduced", _FOUR_ANGLES, _qutrit_frame)
# nprime is the frame of the nu = -1/3 kernel, the only kernel routed to this chart
_ADAPTED_CHART = EulerChart(
    "adapted", _FOUR_ANGLES, lambda mu, e: nprime_closed_form(e.alpha, e.beta, e.gamma, e.theta)
)


def kernel_chart(p: ModuliPoint) -> EulerChart:
    """The Euler chart whose coordinates cover the phase space of the kernel `p`.

    A qutrit kernel within the degeneracy gap of `qutrit_mu(-1)` takes the
    reduced chart, one within it of `qutrit_mu(-1/3)` the adapted chart, and
    any other the standard chart, which serves every kernel.  The isotropy
    signature alone cannot decide: `mu = (0, -1)` is degenerate like
    `nu = -1/3`, but in levels 1-2, where the adapted chart does not apply.
    """
    if _check_records((p, ModuliPoint)) == 2:
        return _QUBIT_CHART
    if p.dim_n != 3:
        raise DomainError(f"Euler charts exist for N=2 and N=3, got N={p.dim_n}")
    for nu, chart in ((QUTRIT_NU_MIN, _REDUCED_CHART), (QUTRIT_NU_MAX, _ADAPTED_CHART)):
        if np.max(np.abs(p.mu - qutrit_mu(nu).mu)) <= TOLERANCES.degeneracy_gap:
            return chart
    return _STANDARD_CHART


def chart_wf(
    xi: np.ndarray | DensityState, kernel: ModuliPoint | float, chart: EulerChart, angles: Mapping[str, np.ndarray]
) -> float | np.ndarray:
    """Closed-form Wigner values at chart points, broadcasting over array angles.

    `kernel` is a moduli point, or a qutrit family parameter taken through `qutrit_mu` as in `qutrit_wf`.  `xi` is
    a Bloch vector, checked here, or a `DensityState`, taken as built.  The angle ranges are checked once for all
    points; omitted angles are 0.  An angle the chart lacks is a `ValidationError`, and so is a chart other than
    `kernel_chart(kernel)` and the standard chart, which serves every kernel.
    """
    _check_records((chart, EulerChart))
    stray = [name for name in angles if name not in chart.angles]
    if stray:
        raise ValidationError(f"the {chart.name} chart has no angle(s) {', '.join(map(str, stray))}")
    p = kernel if isinstance(kernel, ModuliPoint) else qutrit_mu(kernel)
    state = xi if isinstance(xi, DensityState) else rho_from_bloch(p.dim_n, xi)
    e = chart.euler(**angles)
    _check_records((state, DensityState), (p, ModuliPoint), (e, chart.euler))
    if chart is not kernel_chart(p) and chart is not _STANDARD_CHART:
        raise ValidationError(f"the {chart.name} chart does not serve this kernel: take kernel_chart or the standard chart")
    return _closed_form(state.bloch, chart.frame(p.mu, e))


def _delta_batch(u: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Kernels `U P U^dag` for a batch of unitaries, shape `(count, n, n)`, laid out like `u`."""
    count, n, _ = u.shape
    # `u` conjugated into a batch-last lane buffer, the level below the slice's, idle once the slice is drawn
    with lane_buffer(u.size, complex) as buf:
        return np.einsum("kij,j,klj->kil", u, diag, np.conjugate(u, out=buf.reshape(n, n, count).transpose(2, 0, 1)))


def _flag(moduli: ModuliPoint, n: int) -> tuple[int, np.ndarray, float]:
    """`(c, w, p[-1])` with `Delta = p[-1] I + sum_{j < c} w_j u_j u_j^dag`, `u_j` the columns of U, `p` the diagonal
    of `P` read at call time, `w = p[:c] - p[-1]` and `c` N less the length of the trailing run of exactly equal entries
    of `p`: the kernels read no other column, nor the phase of any column."""
    p = kernel_diagonal(moduli, gell_mann_basis(n))
    c = int(np.flatnonzero(p != p[-1]).max(initial=-1)) + 1
    return c, p[:c] - p[-1], p[-1]


def _column_symbols(u: np.ndarray, a: np.ndarray, w: np.ndarray, last: float) -> np.ndarray:
    """Symbols `tr(A Delta) = last tr(A) + sum_j w_j u_j^dag A u_j` from the `(count, n, c)` columns `u` of a `_flag`,
    with no kernel batch; rows and columns are added in their order, so the bits do not depend on the layout of `u`."""
    v = np.einsum("il,klj->kij", a, u)
    s = reduce(np.add, (np.conjugate(u[:, i]) * v[:, i] for i in range(len(a)))).real
    return reduce(np.add, (w_j * s[:, j] for j, w_j in enumerate(w)), last * np.trace(a).real)


def _kernel_average(moduli: ModuliPoint, n: int, seed: int, samples: int, f: Callable) -> tuple[np.ndarray, np.ndarray]:
    """`_haar_average` of `f(symbols)`, `symbols(A)` the symbols `tr(A Delta)` of a slice: only the `_flag` is drawn."""
    c, w, last = _flag(moduli, n)
    return _haar_average(n, seed, samples, lambda u: f(lambda a: _column_symbols(u, a, w, last)), c)


def state_wf_sampler(state: DensityState, moduli: ModuliPoint) -> Callable[[np.ndarray], np.ndarray]:
    """Batch Wigner-function sampler of a known state, `U_k -> tr(rho Delta(U_k))`.

    The returned callable has the signature `reconstruct_state` expects, so a
    known state can be pushed through the reconstruction round trip.
    """
    c, w, last = _flag(moduli, _check_records((state, DensityState), (moduli, ModuliPoint)))
    return lambda u: _column_symbols(u[:, :, :c], state.rho, w, last)


class ReconstructionResult(NamedTuple):
    """Reconstructed state with its Monte Carlo quality diagnostics.

    `frobenius_error_estimate` is the standard error of the estimator
    aggregated over all matrix entries in Frobenius norm;
    `antihermitian_residue` is the Frobenius norm of the discarded
    anti-Hermitian part (pure sampling noise).
    """

    rho_hat: np.ndarray
    frobenius_error_estimate: float
    antihermitian_residue: float


def reconstruct_state(
    wf_sampler: Callable[[np.ndarray], np.ndarray],
    n: int,
    moduli: ModuliPoint,
    samples: int,
    seed: int,
) -> ReconstructionResult:
    """Reconstruct a state from its Wigner function by Haar-averaged kernel weighting.

    `wf_sampler` receives a batch-last `(count, n, n)` slice of special-unitary
    matrices (lane scratch: do not keep or change it) on a lane of `_haar_average`,
    possibly a pool thread, and returns the Wigner values of the hidden state there.
    The estimator is `rho_hat = N * mean_k[ W(U_k) Delta(U_k) ]`, Hermitized
    by symmetric averaging before being returned, with per-slice error sums
    merged as they come.  A run with `4 m` samples reuses the first `m`
    samples of the run with the same seed.
    """

    def terms(u: np.ndarray) -> np.ndarray:
        w = _as_array(wf_sampler(u), "wf_sampler values", (len(u),))
        # into the memory of `u`, unused once the kernels are built; C-ordered, so the mean adds the samples in order
        return np.multiply(n * w[:, None, None], _delta_batch(u, diag), out=u.transpose(1, 2, 0).reshape(u.shape))

    diag = kernel_diagonal(moduli, gell_mann_basis(n))
    mean, se = _haar_average(n, seed, samples, terms)
    estimate = math.sqrt(float(np.square(se).sum()))
    residue = float(np.linalg.norm((mean - mean.conj().T) / 2.0))
    rho_hat = (mean + mean.conj().T) / 2.0
    rho_hat.setflags(write=False)
    return ReconstructionResult(
        rho_hat=rho_hat,
        frobenius_error_estimate=estimate,
        antihermitian_residue=residue,
    )


class CheckResult(NamedTuple):
    """Monte Carlo estimate vs target with its standard error."""

    mc: float
    target: float
    sigma: float


class NormCheckResult(NamedTuple):
    """Monte Carlo norm-integral estimate (target is 1) with its standard error."""

    mc: float
    sigma: float


def check_norm(state: DensityState, moduli: ModuliPoint, samples: int, seed: int) -> NormCheckResult:
    """Monte Carlo check of the norm postulate: the Haar average of `N W` equals `tr(rho) = 1`."""
    n = _check_records((state, DensityState), (moduli, ModuliPoint))
    mc, se = _kernel_average(moduli, n, seed, samples, lambda symbols: n * symbols(state.rho))
    return NormCheckResult(mc=float(mc), sigma=float(se[0]))


def check_standardisation(a: np.ndarray, moduli: ModuliPoint, samples: int, seed: int) -> CheckResult:
    """Monte Carlo check of standardisation: `N * E[tr(A Delta)] = tr(A)`."""
    a = _hermitian(a, "A")
    n = a.shape[0]
    mc, se = _kernel_average(moduli, n, seed, samples, lambda symbols: n * symbols(a))
    return CheckResult(mc=float(mc), target=float(np.trace(a).real), sigma=float(se[0]))


def check_traciality(
    a: np.ndarray, b: np.ndarray, moduli: ModuliPoint, samples: int, seed: int
) -> CheckResult:
    """Monte Carlo check of traciality: `N * E[tr(A Delta) tr(B Delta)] = tr(A B)`.

    Both symbols are taken against the same kernel family member, which is
    the self-dual setting where the identity holds.
    """
    a = _hermitian(a, "A")
    n = a.shape[0]
    b = _hermitian(b, "B", n)
    mc, se = _kernel_average(moduli, n, seed, samples, lambda symbols: n * symbols(a) * symbols(b))
    return CheckResult(mc=float(mc), target=float(np.trace(a @ b).real), sigma=float(se[0]))


def check_covariance(
    state: DensityState, kernel_point: PhasePoint, moduli: ModuliPoint, g: np.ndarray
) -> float:
    """Round-off-level residual of the covariance postulate.

    Computes the largest entry of `|Delta(g U) - g Delta(U) g^dag|` for the
    kernel at `U = kernel_point`, both kernels assembled by `assemble_kernel`;
    `g` is moved into SU(N) by its determinant phase, which cancels on the
    right-hand side.  The identity is algebraic, so the residual must vanish
    to round-off, not statistically.  `state` fixes the dimension: the
    postulate is a property of the kernel, so no choice of state can hide a
    kernel that breaks it.
    """
    n = _check_records((state, DensityState), (kernel_point, PhasePoint), (moduli, ModuliPoint))
    basis = gell_mann_basis(n)
    g = _unitary(g, n, "transformation matrix")
    special = g / np.linalg.det(g) ** (1.0 / n)
    moved = assemble_kernel(moduli, special @ kernel_point.u, basis).delta
    expected = g @ assemble_kernel(moduli, kernel_point.u, basis).delta @ g.conj().T
    return float(np.max(np.abs(moved - expected)))


def seeded_hermitian(n: int, seed: int) -> np.ndarray:
    """A reproducible random Hermitian matrix with O(1) entries, for integral checks; N >= 2."""
    n = _as_index(n, "N", 2)
    z = counter_normals(seed, 0, 1, 2 * n * n)[0]
    g = (z[: n * n] + 1j * z[n * n :]).reshape(n, n)
    return (g + g.conj().T) / 2.0
