"""Wigner quasiprobability evaluation, state reconstruction, and postulate checks.

The Wigner function of a state at a phase-space point is `W = tr(rho Delta)`;
with the Bloch expansion of both factors it collapses to the closed form

    W = (1/N) [ 1 + (N**2 - 1)/sqrt(N + 1) * (n, xi) ],

where `n` is the moduli-weighted sum of the Cartan adjoint vectors at the
point.  Reconstruction inverts the correspondence by the Haar average
`rho = N * E[ W(U) Delta(U) ]`, which the integral checks in this module
verify together with the norm, standardisation, traciality and covariance
identities.  All Monte Carlo routines follow the counter-based substream
contract: results are seed-reproducible and independent of batch layout.
"""
from __future__ import annotations

import math
from typing import Callable, Mapping, NamedTuple

import numpy as np

from ._streams import counter_normals
from .algebra import GellMannBasis, gell_mann_basis
from .config import TOLERANCES
from .errors import (
    DomainError,
    NumericalIntegrityError,
    ValidationError,
)
from .group import (
    EulerSU2,
    EulerSU3,
    PhasePoint,
    adjoint_vector,
    haar_batch,
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
    "qutrit_wf_adapted",
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

_BATCH = 1 << 16


def wigner_value(state: DensityState, kernel: KernelMatrix) -> float:
    """Wigner function value `tr(rho Delta)`.

    Both factors are Hermitian, so the trace is real; an imaginary residue
    above the algebraic tolerance indicates corrupted inputs and raises
    `NumericalIntegrityError`.
    """
    if state.dim_n != kernel.dim_n:
        raise ValidationError(f"state dimension {state.dim_n} != kernel dimension {kernel.dim_n}")
    value = complex(np.einsum("ij,ji->", state.rho, kernel.delta))
    if abs(value.imag) > TOLERANCES.algebraic:
        raise NumericalIntegrityError(f"Wigner value has imaginary residue {value.imag:.3e}")
    return value.real


def _closed_form(xi: np.ndarray, frame: np.ndarray) -> float | np.ndarray:
    """`(1/N)[1 + (N**2-1)/sqrt(N+1) * (n, xi)]` for a frame `n` of shape `(..., N**2-1)`."""
    n = math.isqrt(xi.size + 1)
    w = (1.0 + (n * n - 1.0) / math.sqrt(n + 1.0) * (frame @ xi)) / n
    return float(w) if np.ndim(w) == 0 else w


def wigner_closed_form(
    xi: np.ndarray, p: ModuliPoint, point: PhasePoint, basis: GellMannBasis
) -> float:
    """Closed-form Wigner value from a Bloch vector and a moduli point.

    Evaluates `(1/N)[1 + (N**2-1)/sqrt(N+1) * (n, xi)]` with
    `n = sum_s mu_s n^(s**2-1)(U)`; agrees with `wigner_value` on the
    assembled kernel to round-off.
    """
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
    if basis.dim_n != 3:
        raise ValidationError(f"qutrit Wigner function needs the N=3 basis, got N={basis.dim_n}")
    return _closed_form(rho_from_bloch(3, xi).bloch, _qutrit_frame(qutrit_mu(nu).mu, e))


def qutrit_wf_adapted(
    xi: np.ndarray, alpha: float, beta: float, gamma: float, theta: float
) -> float:
    """Wigner function of the `nu = -1/3` kernel in the adapted four-angle chart.

    Evaluates `1/3 + (4/3)(nprime, xi)` with the adapted-chart frame vector;
    covers the same four-dimensional phase space as `qutrit_wf` at
    `nu = -1/3` in different coordinates.
    """
    return _closed_form(rho_from_bloch(3, xi).bloch, nprime_closed_form(alpha, beta, gamma, theta))


class EulerChart(NamedTuple):
    """Euler-angle coordinates of a kernel's phase space, with the moduli-weighted frame there."""

    name: str
    angles: tuple[str, ...]
    frame: Callable[[np.ndarray, EulerSU2 | EulerSU3], np.ndarray]


_FOUR_ANGLES = ("alpha", "beta", "gamma", "theta")
_QUBIT_CHART = EulerChart("qubit", ("alpha", "beta"), lambda mu, e: mu[0] * qubit_frame(e))
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
    if p.dim_n == 2:
        return _QUBIT_CHART
    if p.dim_n != 3:
        raise DomainError(f"Euler charts exist for N=2 and N=3, got N={p.dim_n}")
    for nu, chart in ((QUTRIT_NU_MIN, _REDUCED_CHART), (QUTRIT_NU_MAX, _ADAPTED_CHART)):
        if np.max(np.abs(p.mu - qutrit_mu(nu).mu)) <= TOLERANCES.degeneracy_gap:
            return chart
    return _STANDARD_CHART


def chart_wf(
    xi: np.ndarray, kernel: ModuliPoint | float, chart: EulerChart, angles: Mapping[str, np.ndarray]
) -> float | np.ndarray:
    """Closed-form Wigner values at chart points, broadcasting over array angles.

    `kernel` is a moduli point, or a qutrit family parameter taken through
    `qutrit_mu` as in `qutrit_wf`.  The Bloch vector and the angle ranges
    are checked once for all points; omitted angles are 0.
    """
    p = kernel if isinstance(kernel, ModuliPoint) else qutrit_mu(kernel)
    xi = rho_from_bloch(p.dim_n, xi).bloch
    return _closed_form(xi, chart.frame(p.mu, (EulerSU2 if p.dim_n == 2 else EulerSU3)(**angles)))


def _delta_batch(u: np.ndarray, diag: np.ndarray) -> np.ndarray:
    """Kernels `U P U^dag` for a batch of unitaries, shape `(count, n, n)`."""
    return np.einsum("kij,j,klj->kil", u, diag, u.conj())


def _symbol_batch(delta: np.ndarray, a: np.ndarray) -> np.ndarray:
    """Symbols `tr(A Delta_k)` for a batch of kernels (real part)."""
    return np.einsum("kil,li->k", delta, a).real


def state_wf_sampler(
    state: DensityState, moduli: ModuliPoint
) -> Callable[[np.ndarray], np.ndarray]:
    """Batch Wigner-function sampler of a known state, `U_k -> tr(rho Delta(U_k))`.

    The returned callable has the signature `reconstruct_state` expects, so a
    known state can be pushed through the reconstruction round trip.
    """
    if moduli.dim_n != state.dim_n:
        raise ValidationError(
            f"moduli dimension {moduli.dim_n} does not match state dimension {state.dim_n}"
        )
    diag = kernel_diagonal(moduli, gell_mann_basis(state.dim_n))
    rho = state.rho

    def sampler(u: np.ndarray) -> np.ndarray:
        return _symbol_batch(_delta_batch(u, diag), rho)

    return sampler


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

    `wf_sampler` receives a `(count, n, n)` batch of special-unitary matrices
    and returns the Wigner values of the hidden state at those points; the
    estimator is `rho_hat = N * mean_k[ W(U_k) Delta(U_k) ]`, Hermitized by
    symmetric averaging before being returned.  Thanks to the substream
    contract, a run with `4 m` samples reuses the first `m` samples of the
    run with the same seed.
    """
    if samples < 1000:
        raise DomainError(f"need at least 1000 samples, got {samples}")
    if moduli.dim_n != n:
        raise ValidationError(f"moduli dimension {moduli.dim_n} does not match n={n}")
    diag = kernel_diagonal(moduli, gell_mann_basis(n))
    acc = np.zeros((n, n), dtype=complex)
    acc_sq = np.zeros((n, n))
    for start in range(0, samples, _BATCH):
        count = min(_BATCH, samples - start)
        u = haar_batch(n, seed, start, count)
        delta = _delta_batch(u, diag)
        w = np.asarray(wf_sampler(u), dtype=float)
        if w.shape != (count,):
            raise ValidationError(f"wf_sampler returned shape {w.shape}, expected ({count},)")
        term = n * w[:, None, None] * delta
        acc += term.sum(axis=0)
        acc_sq += (term.real**2 + term.imag**2).sum(axis=0)
    mean = acc / samples
    variance = acc_sq / samples - (mean.real**2 + mean.imag**2)
    estimate = math.sqrt(float(variance.sum()) / samples)
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


def _validated_hermitian(a: np.ndarray, name: str) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    if a.ndim != 2 or a.shape[0] != a.shape[1]:
        raise ValidationError(f"{name} must be a square matrix, got shape {a.shape}")
    if np.max(np.abs(a - a.conj().T)) > TOLERANCES.algebraic:
        raise ValidationError(f"{name} must be Hermitian within tolerance")
    return a


def _symbol_values(
    a: np.ndarray, b: np.ndarray | None, n: int, moduli: ModuliPoint, samples: int, seed: int
) -> np.ndarray:
    """Per-sample values `N tr(A Delta_k)` or `N tr(A Delta_k) tr(B Delta_k)`."""
    if samples < 1000:
        raise DomainError(f"need at least 1000 samples, got {samples}")
    diag = kernel_diagonal(moduli, gell_mann_basis(n))
    values = np.empty(samples)
    for start in range(0, samples, _BATCH):
        count = min(_BATCH, samples - start)
        delta = _delta_batch(haar_batch(n, seed, start, count), diag)
        va = _symbol_batch(delta, a)
        if b is None:
            values[start : start + count] = n * va
        else:
            values[start : start + count] = n * va * _symbol_batch(delta, b)
    return values


def check_norm(state: DensityState, moduli: ModuliPoint, samples: int, seed: int) -> NormCheckResult:
    """Monte Carlo check of the norm postulate: the Haar average of `N W` equals `tr(rho) = 1`."""
    values = _symbol_values(state.rho, None, state.dim_n, moduli, samples, seed)
    return NormCheckResult(mc=float(values.mean()), sigma=float(values.std() / math.sqrt(samples)))


def check_standardisation(
    a: np.ndarray, moduli: ModuliPoint, samples: int, seed: int
) -> CheckResult:
    """Monte Carlo check of standardisation: `N * E[tr(A Delta)] = tr(A)`."""
    a = _validated_hermitian(a, "A")
    n = a.shape[0]
    values = _symbol_values(a, None, n, moduli, samples, seed)
    return CheckResult(
        mc=float(values.mean()),
        target=float(np.trace(a).real),
        sigma=float(values.std() / math.sqrt(samples)),
    )


def check_traciality(
    a: np.ndarray, b: np.ndarray, moduli: ModuliPoint, samples: int, seed: int
) -> CheckResult:
    """Monte Carlo check of traciality: `N * E[tr(A Delta) tr(B Delta)] = tr(A B)`.

    Both symbols are taken against the same kernel family member, which is
    the self-dual setting where the identity holds.
    """
    a = _validated_hermitian(a, "A")
    b = _validated_hermitian(b, "B")
    if a.shape != b.shape:
        raise ValidationError(f"operator shapes differ: {a.shape} vs {b.shape}")
    n = a.shape[0]
    values = _symbol_values(a, b, n, moduli, samples, seed)
    return CheckResult(
        mc=float(values.mean()),
        target=float(np.trace(a @ b).real),
        sigma=float(values.std() / math.sqrt(samples)),
    )


def check_covariance(
    state: DensityState, kernel_point: PhasePoint, moduli: ModuliPoint, g: np.ndarray
) -> float:
    """Round-off-level residual of the covariance postulate.

    Computes `|tr((g rho g^dag) Delta(U)) - tr(rho (g^dag Delta(U) g))|` for
    the kernel at `kernel_point`; the identity is algebraic, so the residual
    must vanish to round-off, not statistically.
    """
    basis = gell_mann_basis(state.dim_n)
    kernel = assemble_kernel(moduli, kernel_point.u, basis)
    g = np.asarray(g, dtype=complex)
    if np.max(np.abs(g.conj().T @ g - np.eye(state.dim_n))) > TOLERANCES.spectral:
        raise ValidationError("transformation matrix is not unitary within tolerance")
    moved_state = g @ state.rho @ g.conj().T
    moved_kernel = g.conj().T @ kernel.delta @ g
    lhs = complex(np.einsum("ij,ji->", moved_state, kernel.delta))
    rhs = complex(np.einsum("ij,ji->", state.rho, moved_kernel))
    return abs(lhs - rhs)


def seeded_hermitian(n: int, seed: int) -> np.ndarray:
    """A reproducible random Hermitian matrix with O(1) entries, for integral checks."""
    z = counter_normals(seed, 0, 1, 2 * n * n)[0]
    g = (z[: n * n] + 1j * z[n * n :]).reshape(n, n)
    return (g + g.conj().T) / 2.0
