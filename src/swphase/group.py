"""SU(N) machinery: Haar sampling, Euler charts, adjoint frame vectors, Weingarten oracles.

Haar samples are the Q factor of complex Ginibre matrices whose R factor has
a positive real diagonal (Mezzadri 2007), then pushed from U(N) to SU(N) by
dividing the first column by the determinant (a measure-preserving move for
every balanced observable: the overall U(1) phase cancels between `U` and
`U*` factors); an average whose integrand cancels it draws only the columns it
reads.  That Q is built by classical Gram-Schmidt applied twice, vectorised
over the batch, with the last column and the determinant in closed form for N <= 4.
Sampling follows the counter-based substream contract of `_streams`, so the
samples are independent of batching: sample `k` is the same in any batch,
and whichever thread fills it.  Monte Carlo slices are batch-last: memory
`(N, N, count)` seen as `(count, N, N)`, so the per-sample einsums loop over
the samples innermost; `haar_batch` still returns C-ordered arrays.
"""
from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from functools import lru_cache, reduce
from itertools import combinations
from typing import NamedTuple, Sequence

import numpy as np

from ._streams import _as_array, _as_index, _check_records, _freeze, _padded_budget
from ._streams import check_samples, check_seed, counter_normals, lane_buffer, over_slices
from .algebra import GellMannBasis, expand_in_basis, gell_mann_basis
from .config import TOLERANCES
from .errors import DomainError, ValidationError

__all__ = [
    "PhasePoint",
    "EulerSU3",
    "EulerSU2",
    "haar_sample",
    "haar_batch",
    "su3_from_euler",
    "su2_coset",
    "adjoint_vector",
    "adjoint_matrix",
    "qubit_frame",
    "n3_closed_form",
    "n8_closed_form",
    "nprime_closed_form",
    "ad_t_matrix",
    "nprime_rotation",
    "weingarten2_check",
    "weingarten4_check",
    "MomentCheck",
]

#: Fewest samples of a Weingarten moment check (and so of `swphase verify`).
_MOMENT_MIN_SAMPLES = 10_000


def _check_chart(chart, label: str, **ranges: float) -> None:
    """Freeze each angle of `chart` as a finite float array, warning of one outside [0, hi]; `ranges` is name -> hi."""
    angles = {name: _as_array(getattr(chart, name), f"{label} {name}", None) for name in ranges}
    try:
        np.broadcast_shapes(*(angle.shape for angle in angles.values()))  # the axes of an open mesh
    except ValueError as exc:
        raise ValidationError(f"{label} do not broadcast together: {exc}") from None
    off = [name for name, hi in ranges.items() if not np.all((0.0 <= angles[name]) & (angles[name] <= hi))]
    if off:
        # above this frame: __post_init__, the dataclass __init__, then the caller
        warnings.warn(f"{label} outside the chart ranges: {', '.join(off)}", stacklevel=4)
    _freeze(chart, **angles)


@dataclass(frozen=True, eq=False)
class EulerSU3:
    """Euler angles of the SU(3) chart `V(alpha,beta,gamma) e^{i theta g5} V(a,b,c) e^{i phi g8}`.

    The chart covers the group for alpha, a in [0, 2pi], beta, b in [0, pi],
    gamma, c in [0, 4pi], theta in [0, pi/2], phi in [0, sqrt(3) pi].  A
    non-finite angle raises `ValidationError`; finite angles outside these
    ranges only trigger a warning: the closed-form identities in
    this module hold for all real angles, and tests sweep freely.  Angles may
    be arrays that broadcast together, an open mesh's axes; the closed forms
    then return one frame vector per point, and ranges are checked per array.
    Each angle is kept as a read-only float array, 0-d for a number.
    """

    alpha: float = 0.0
    beta: float = 0.0
    gamma: float = 0.0
    a: float = 0.0
    b: float = 0.0
    c: float = 0.0
    theta: float = 0.0
    phi: float = 0.0
    dim_n = 3  # the N of the group the chart covers: a class constant, not a field

    def __post_init__(self):
        _check_chart(self, "Euler angle(s)", alpha=2.0 * math.pi, beta=math.pi, gamma=4.0 * math.pi, a=2.0 * math.pi,
                     b=math.pi, c=4.0 * math.pi, theta=math.pi / 2.0, phi=math.sqrt(3.0) * math.pi)


@dataclass(frozen=True, eq=False)
class EulerSU2:
    """Angles of the qubit coset chart `e^{i alpha/2 s3} e^{i beta/2 s2} e^{-i alpha/2 s3}`, or arrays of them.

    Non-finite angles raise `ValidationError`; finite ones outside [0, 2pi] x [0, pi] only warn.  Each angle is
    kept as a read-only float array, as `EulerSU3` keeps its angles.
    """

    alpha: float = 0.0
    beta: float = 0.0
    dim_n = 2  # as `EulerSU3.dim_n`

    def __post_init__(self):
        _check_chart(self, "qubit chart angle(s)", alpha=2.0 * math.pi, beta=math.pi)


def _unitary(u, n: int, name: str) -> np.ndarray:
    """`u` as a new complex array, after checking it is a finite N x N unitary matrix.

    The one unitarity check of the package: raises `ValidationError` naming
    `name` on a wrong shape, a non-finite entry or a departure from
    `U^dag U = I` above the spectral tolerance.
    """
    u = _as_array(u, name, (n, n), complex)
    if np.max(np.abs(u.conj().T @ u - np.eye(n))) > TOLERANCES.spectral:
        raise ValidationError(f"{name} is not unitary within tolerance")
    return u


@dataclass(frozen=True, eq=False)
class PhasePoint:
    """A phase-space point: a read-only copy of a special-unitary matrix, optionally with its Euler chart."""

    dim_n: int
    u: np.ndarray
    chart: EulerSU3 | EulerSU2 | None = None

    def __post_init__(self):
        u = _unitary(self.u, _as_index(self.dim_n, "N", 2), "phase-space matrix")
        if abs(np.linalg.det(u) - 1.0) > TOLERANCES.spectral:
            raise ValidationError("phase-space matrix determinant differs from 1 beyond tolerance")
        _freeze(self, dim_n=len(u), u=u)
        if self.chart is not None:  # the chart record of the point's N
            _check_records((self, PhasePoint), (self.chart, EulerSU2 if len(u) == 2 else EulerSU3))


def _cofactors(q: np.ndarray) -> list:
    """Cofactor of each row i in `det[q_0 .. q_{N-2}, x]`, by Laplace expansion with each minor built once."""
    n = q.shape[-1]
    minors = {(r,): q[:, r, 0] for r in range(n)}  # of rows `rows` and the first len(rows) columns
    for col in range(1, n - 1):
        for rows in combinations(range(n), col + 1):
            # numpy runs a large `view * temporary` as `temporary *= view`, which rounds differently: minors first
            terms = [minors[rows[:i] + rows[i + 1 :]] * q[:, rows[i], col] for i in range(col, -1, -1)]
            minors[rows] = reduce(lambda rest, t: t - rest, terms[::-1])  # terms[0] - terms[1] + terms[2] ...
    rows = tuple(range(n))
    return [(-1) ** (n - 1 - i) * minors[rows[:i] + rows[i + 1 :]] for i in rows]


def _orthonormalize(g: np.ndarray, prefix: int | None = None) -> np.ndarray | None:
    """The Q factor with positive real R diagonal of each matrix in `g`, computed in place; returns det Q.

    Classical Gram-Schmidt over the columns, with the projection applied twice: one pass loses orthogonality in
    proportion to the condition number, two keep it at round-off (Giraud, Langou, Rozloznik 2005).  Sums run over
    matrix indices only, never across the batch axis, so a sample's arithmetic does not depend on the batch it is in.

    For N <= 4 the last column is `e^{i psi} conj(w)`, `w` the `_cofactors` of the others; a positive last R entry
    fixes `e^{i psi} = s/|s|` for `s = det[q_0 .. q_{N-2}, g_{N-1}]`, and `det Q = e^{i psi} |w|^2 = e^{i psi}` to
    round-off.  Above N = 4 every column is projected and LAPACK gives det Q.  `prefix = c` projects the first c
    columns alone and stops there, with no last column and no det Q, and returns `None`.
    """
    count, n = len(g), g.shape[-1]
    cols = (n - 1 if n <= 4 else n) if prefix is None else prefix
    with lane_buffer(3 * count * n, complex) as rows:
        # temporaries in lane scratch, batch-last, so that each einsum loops over the samples innermost
        c, t, w = (r.reshape(n, count).T for r in rows.reshape(3, count * n))
        for j in range(cols):
            v = g[:, :, j]
            if j:
                q = g[:, :, :j]
                for _ in range(2):
                    # conj(sum_i q_il conj(v_i)) is sum_i conj(q_il) v_i bit for bit, without a conjugated copy of
                    # q; conj(v) is read only before t is written, so it borrows t
                    cj = np.einsum("kil,ki->kl", q, np.conjugate(v, out=t), out=c[:, :j])
                    v = np.subtract(v, np.einsum("kil,kl->ki", q, np.conjugate(cj, out=cj), out=t), out=w)
            norm = np.sqrt(np.einsum("ki,ki->k", v.real, v.real) + np.einsum("ki,ki->k", v.imag, v.imag))
            np.divide(v, norm[:, None], out=g[:, :, j])
    if prefix is not None:
        return None
    if cols == n:
        return np.linalg.det(g)
    cof = _cofactors(g)
    s = reduce(np.add, (w * g[:, i, -1] for i, w in enumerate(cof)))
    phase = s / np.abs(s)
    np.conjugate(np.stack(cof, axis=-1), out=g[:, :, -1])
    g[:, :, -1] *= phase[:, None]
    return phase


def _haar_slice(n: int, seed: int, start: int, q: np.ndarray, prefix: int | None = None) -> None:
    """Fill `q`, a complex `(count, n, n)` array, with Haar samples `start ..`, on the calling thread; with
    `prefix = c`, its first c columns alone, from the same normals, as they are before column 0 is divided by det Q."""
    with lane_buffer(len(q) * _padded_budget(2 * n * n)) as buf:
        z = counter_normals(seed, start, len(q), 2 * n * n, out=buf).reshape(len(q), 2, n, n)
        q[:, :, :prefix].real, q[:, :, :prefix].imag = z[:, 0, :, :prefix], z[:, 1, :, :prefix]
    # Q does not depend on the Ginibre scale 1/sqrt(2), so it is not applied
    det = _orthonormalize(q, prefix)
    if prefix is None:
        q[:, :, 0] /= det[:, None]


def haar_batch(n: int, seed: int, start: int, count: int, *, out: np.ndarray | None = None) -> np.ndarray:
    """Haar samples `start .. start+count-1` on SU(N), shape `(count, n, n)`.

    Sample `k` depends only on `(n, seed, k)`, so runs with different batch
    splits or sample totals share their common prefix bit-for-bit.  Each
    sample is the Q factor, with positive real R diagonal, of a complex
    Ginibre matrix, by twice-applied Gram-Schmidt; its first column is then
    divided by its determinant, in closed form with the last column for N <= 4.

    The batch is filled slice by slice by `_streams.over_slices`; its lanes
    write disjoint slices and reduce nothing, so the output is the same on
    any number of CPUs.  `out`, a complex array of shape `(count, n, n)`,
    receives the samples and is returned.
    """
    n, start, count = _as_index(n, "N", 2), _as_index(start, "start", 0), _as_index(count, "count", 0)
    check_seed(seed)
    if out is None:
        out = np.empty((count, n, n), dtype=complex)
    elif not isinstance(out, np.ndarray) or out.shape != (count, n, n) or out.dtype != complex:
        raise ValidationError(f"out must be a complex array of shape {(count, n, n)}")
    for _ in over_slices(count, lambda a, b: _haar_slice(n, seed, start + a, out[a:b])):
        pass
    return out


def haar_sample(n: int, seed: int) -> PhasePoint:
    """A single seeded Haar-random phase-space point on SU(N)."""
    return PhasePoint(dim_n=n, u=haar_batch(n, seed, 0, 1)[0])


def _rot_real(n: int, i: int, j: int, angle: float) -> np.ndarray:
    """exp of `angle` times the antisymmetric generator in the (i, j) plane."""
    m = np.eye(n, dtype=complex)
    c, s = math.cos(angle), math.sin(angle)
    m[i, i] = c
    m[j, j] = c
    m[i, j] = s
    m[j, i] = -s
    return m


def _phase_diag(phases: Sequence[float]) -> np.ndarray:
    return np.diag(np.exp(1j * np.asarray(phases, dtype=float)))


def _v_factor(a: float, b: float, c: float) -> np.ndarray:
    """The SU(2) block `e^{i a/2 g3} e^{i b/2 g2} e^{i c/2 g3}` embedded in levels (1, 2)."""
    return (
        _phase_diag([a / 2.0, -a / 2.0, 0.0])
        @ _rot_real(3, 0, 1, b / 2.0)
        @ _phase_diag([c / 2.0, -c / 2.0, 0.0])
    )


def su3_from_euler(e: EulerSU3, basis: GellMannBasis) -> PhasePoint:
    """Evaluate the SU(3) Euler chart at `e`.

    The five factors are one-parameter subgroups of the generators g3, g2,
    g5, g8 of `basis`, multiplied in closed form (diagonal phases and real
    plane rotations) rather than by matrix exponentials.
    """
    _check_records((e, EulerSU3), (basis, GellMannBasis))
    s3 = math.sqrt(3.0)
    u = (
        _v_factor(e.alpha, e.beta, e.gamma)
        @ _rot_real(3, 0, 2, e.theta)
        @ _v_factor(e.a, e.b, e.c)
        @ _phase_diag([e.phi / s3, e.phi / s3, -2.0 * e.phi / s3])
    )
    return PhasePoint(dim_n=3, u=u, chart=e)


def su2_coset(e: EulerSU2) -> PhasePoint:
    """Evaluate the qubit coset chart at `e`.

    Closed form: `[[cos(b/2), e^{i a} sin(b/2)], [-e^{-i a} sin(b/2), cos(b/2)]]`
    with `a = alpha`, `b = beta`.
    """
    _check_records((e, EulerSU2))
    c, s = math.cos(e.beta / 2.0), math.sin(e.beta / 2.0)
    ph = np.exp(1j * e.alpha)
    u = np.array([[c, ph * s], [-np.conj(ph) * s, c]])
    return PhasePoint(dim_n=2, u=u, chart=e)


def adjoint_vector(p: PhasePoint, cartan_index: int, basis: GellMannBasis) -> np.ndarray:
    """The adjoint-representation image of a Cartan direction at phase point `p`.

    Component `m` is `tr(U g_c U^dag g_m) / 2` for the 1-based Cartan label
    `c = cartan_index`; always a unit vector, and vectors for distinct Cartan
    labels are mutually orthogonal.
    """
    _check_records((p, PhasePoint), (basis, GellMannBasis))
    if _as_index(cartan_index, "Cartan label", 1) not in basis.cartan_indices:
        raise DomainError(f"label {cartan_index} is not a Cartan label {basis.cartan_indices}")
    return expand_in_basis(p.u @ basis.generator(cartan_index) @ p.u.conj().T, basis)[0]


def adjoint_matrix(u: np.ndarray, basis: GellMannBasis) -> np.ndarray:
    """The adjoint representation matrix of the N x N unitary `u`: `M[m, v] = tr(u g_v u^dag g_m) / 2`.

    Orthogonal, and composes covariantly with the frame vectors:
    `adjoint_vector(V U, c) = adjoint_matrix(V) @ adjoint_vector(U, c)`.
    """
    u = _unitary(u, _check_records((basis, GellMannBasis)), "adjoint-action matrix")
    rotated = np.einsum("ij,ajk,lk->ail", u, basis.generators, u.conj())
    return np.einsum("ail,mli->ma", rotated, basis.generators).real / 2.0


def _frame(*components) -> np.ndarray:
    """Frame components stacked on a last axis, broadcast over the angle arrays they depend on."""
    return np.stack(np.broadcast_arrays(*components), axis=-1)


def qubit_frame(e: EulerSU2) -> np.ndarray:
    """Closed-form adjoint vector of the s3 direction in the qubit coset chart.

    `(-cos(alpha) sin(beta), sin(alpha) sin(beta), cos(beta))`, the trace
    definition `adjoint_vector(su2_coset(e), 3)` in closed form.
    """
    _check_records((e, EulerSU2))
    al, be = e.alpha, e.beta
    return _frame(-np.cos(al) * np.sin(be), np.sin(al) * np.sin(be), np.cos(be))


def n3_closed_form(e: EulerSU3) -> np.ndarray:
    """Closed-form adjoint vector of the g3 direction in the SU(3) Euler chart.

    Depends on six of the eight angles (c and phi drop out).  Matches the
    trace definition `adjoint_vector(su3_from_euler(e), 3)` to round-off for
    all real angles.
    """
    _check_records((e, EulerSU3))
    al, be, ga, a, b, th = e.alpha, e.beta, e.gamma, e.a, e.b, e.theta
    sb, cb = np.sin(b), np.cos(b)
    cth = np.cos(th)
    s2t = np.sin(2.0 * th)
    flat = 1.0 - 0.5 * np.sin(th) ** 2
    sbe2, cbe2 = np.sin(be / 2.0), np.cos(be / 2.0)
    sth = np.sin(th)
    return _frame(
        sb * cth * (np.sin(al) * np.sin(a + ga) - np.cos(al) * np.cos(be) * np.cos(a + ga))
        - np.cos(al) * np.sin(be) * cb * flat,
        sb * cth * (np.cos(al) * np.sin(a + ga) + np.sin(al) * np.cos(be) * np.cos(a + ga))
        + np.sin(al) * np.sin(be) * cb * flat,
        -np.sin(be) * sb * cth * np.cos(a + ga) + np.cos(be) * cb * flat,
        sb * sth * sbe2 * np.cos(a + (ga - al) / 2.0)
        - 0.5 * cb * s2t * cbe2 * np.cos((al + ga) / 2.0),
        sb * sth * sbe2 * np.sin(a + (ga - al) / 2.0)
        + 0.5 * cb * s2t * cbe2 * np.sin((al + ga) / 2.0),
        sb * sth * cbe2 * np.cos(a + (al + ga) / 2.0)
        + 0.5 * cb * s2t * sbe2 * np.cos((al - ga) / 2.0),
        sb * sth * cbe2 * np.sin(a + (al + ga) / 2.0)
        + 0.5 * cb * s2t * sbe2 * np.sin((al - ga) / 2.0),
        -math.sqrt(3.0) / 2.0 * cb * sth**2,
    )


def n8_closed_form(e: EulerSU3) -> np.ndarray:
    """Closed-form adjoint vector of the g8 direction in the SU(3) Euler chart.

    Depends only on the four angles (alpha, beta, gamma, theta); a, b, c and
    phi drop out because the g8 direction commutes with the right factors of
    the chart.
    """
    _check_records((e, EulerSU3))
    al, be, ga, th = e.alpha, e.beta, e.gamma, e.theta
    s32 = math.sqrt(3.0) / 2.0
    sth2 = np.sin(th) ** 2
    s2t = np.sin(2.0 * th)
    sbe2, cbe2 = np.sin(be / 2.0), np.cos(be / 2.0)
    return _frame(
        s32 * np.cos(al) * np.sin(be) * sth2,
        -s32 * np.sin(al) * np.sin(be) * sth2,
        -s32 * np.cos(be) * sth2,
        -s32 * np.cos((al + ga) / 2.0) * cbe2 * s2t,
        s32 * np.sin((al + ga) / 2.0) * cbe2 * s2t,
        s32 * np.cos((al - ga) / 2.0) * sbe2 * s2t,
        s32 * np.sin((al - ga) / 2.0) * sbe2 * s2t,
        1.0 - 1.5 * sth2,
    )


def nprime_closed_form(alpha: float, beta: float, gamma: float, theta: float) -> np.ndarray:
    """Closed-form adjoint vector of the distinguished Cartan direction in the adapted chart.

    The adapted chart embeds its SU(2) blocks in the lower-right corner and
    diagonalizes kernels whose degenerate eigenvalue pair sits in levels
    (2, 3); the conjugated direction is `diag(2, -1, -1)/sqrt(3)`, i.e.
    `(sqrt(3) g3 + g8) / 2`.  Depends only on the four listed angles and
    always has unit norm.
    """
    s32 = math.sqrt(3.0) / 2.0
    sth2 = np.sin(theta) ** 2
    s2t = np.sin(2.0 * theta)
    sbe2, cbe2 = np.sin(beta / 2.0), np.cos(beta / 2.0)
    return _frame(
        -s32 * np.cos((alpha - gamma) / 2.0) * sbe2 * s2t,
        -s32 * np.sin((alpha - gamma) / 2.0) * sbe2 * s2t,
        s32 * (np.cos(theta) ** 2 - sbe2**2 * sth2),
        -s32 * np.cos((alpha + gamma) / 2.0) * cbe2 * s2t,
        s32 * np.sin((alpha + gamma) / 2.0) * cbe2 * s2t,
        s32 * np.cos(alpha) * np.sin(beta) * sth2,
        -s32 * np.sin(alpha) * np.sin(beta) * sth2,
        0.5 * (1.0 - 3.0 * cbe2**2 * sth2),
    )


@lru_cache(maxsize=1)
def ad_t_matrix() -> np.ndarray:
    """The adjoint matrix of the basis permutation swapping levels 1 and 3.

    Computed from the defining trace formula with the permutation matrix
    `T = [[0,0,1],[0,1,0],[1,0,0]]`; the adjoint action is insensitive to the
    overall phase that would put `T` itself into SU(3).  Orthogonal and
    involutive.
    """
    t = np.zeros((3, 3), dtype=complex)
    t[0, 2] = t[1, 1] = t[2, 0] = 1.0
    m = adjoint_matrix(t, gell_mann_basis(3))
    m.setflags(write=False)
    return m


@lru_cache(maxsize=1)
def nprime_rotation() -> np.ndarray:
    """The constant orthogonal matrix `R` with `nprime(w) = R @ n8(w)` for all angles `w`.

    The adapted chart at angles `w = (alpha, beta, gamma, theta)` equals the
    level-1/3 permutation conjugate of the standard chart at `-w`, and the
    conjugated Cartan direction `diag(2,-1,-1)/sqrt(3)` is minus the
    permutation image of the g8 direction.  Hence
    `nprime(w) = -Ad_T @ n8(-w) = (-Ad_T @ D) @ n8(w)`, where the diagonal
    sign matrix `D` is the parity of the n8 components under
    `w -> -w` (components 1, 4 and 7 are odd, the rest even).
    """
    parity = np.diag([-1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    r = -ad_t_matrix() @ parity
    r.setflags(write=False)
    return r


class MomentCheck(NamedTuple):
    """Result of a Monte Carlo moment test against a closed form."""

    mc: complex
    closed_form: float
    sigma: float


def _check_moment_args(n: int, indices: Sequence[int], arity: int, samples: int) -> tuple[int, tuple[int, ...]]:
    n = _as_index(n, "N", 2)
    idx = tuple(_as_index(i, "moment index", 1) for i in indices)
    if len(idx) != arity:
        raise DomainError(f"expected {arity} indices, got {len(idx)}")
    if any(i > n for i in idx):
        raise DomainError(f"indices must lie in 1..{n}, got {idx}")
    _as_index(samples, "samples", _MOMENT_MIN_SAMPLES)
    return n, tuple(i - 1 for i in idx)


def _merge_moments(a: tuple, b: tuple) -> tuple:
    """Two slice partials `(count, mean, M2)` combined by the pairwise update of Chan, Golub & LeVeque (1983)."""
    na, ma, qa = a
    nb, mb, qb = b
    total = na + nb
    d = mb - ma
    return total, ma + d * (nb / total), qa + qb + np.array([d.real**2, d.imag**2]) * (na * nb / total)


def _haar_average(n: int, seed: int, samples: int, f, prefix: int | None = None) -> tuple[np.ndarray, np.ndarray]:
    """Haar average of `f` over samples `0 .. samples-1`, and the standard errors of its real and imaginary parts.

    `f` maps a batch-last `(count, n, n)` slice of samples, lane scratch that `f` may overwrite, to a `(count, ...)`
    array of real or complex values; with `prefix = c` it gets only the `(count, n, c)` view of the first c columns,
    drawn without the phase det Q (`_haar_slice`), which `f` must cancel.  Each slice yields only its count, mean and
    centred sums of squares M2 of the real and imaginary parts, and the caller merges them as they come, in slice
    order.  Memory does not grow with `samples`, and the result is the same on any number of CPUs.
    """
    check_samples(samples)

    def partial(a: int, b: int) -> tuple:
        with lane_buffer((b - a) * n * n, complex) as buf:
            u = buf.reshape(n, n, b - a).transpose(2, 0, 1)
            _haar_slice(n, seed, a, u, prefix)
            v = f(u[:, :, :prefix])
            m = v.mean(axis=0)
            d = np.subtract(v, m, out=v)
        return b - a, m, np.array([np.square(d.real).sum(axis=0), np.square(d.imag).sum(axis=0)])

    _, mean, m2 = reduce(_merge_moments, over_slices(samples, partial))
    return mean, np.sqrt(m2 / samples) / math.sqrt(samples)


def _moment_prefix(n: int, direct: tuple[int, ...], conjugate: tuple[int, ...]) -> int | None:
    """The `_haar_average` prefix of a moment whose `U` and `U*` factors read the columns `direct` and `conjugate`,
    if both kinds read column 0 equally often, so that det Q on it cancels, and not the last column; else `None`."""
    top = max(direct + conjugate)
    return top + 1 if direct.count(0) == conjugate.count(0) and top < n - 1 else None


def weingarten2_check(n: int, indices: Sequence[int], samples: int, seed: int) -> MomentCheck:
    """Monte Carlo check of the second-order moment `E[U_{i j} U^dag_{k l}]`.

    The closed form is `delta_{i l} delta_{j k} / N`.  Indices are 1-based `(i, j, k, l)`; `sigma` is the standard
    error of the real part.  Only the columns the moment reads are drawn where `_moment_prefix` allows it.
    """
    n, (i, j, k, l) = _check_moment_args(n, indices, 4, samples)
    cf = (1.0 / n) if (i == l and j == k) else 0.0
    mc, se = _haar_average(n, seed, samples, lambda u: u[:, i, j] * u[:, l, k].conj(), _moment_prefix(n, (j,), (k,)))
    return MomentCheck(mc=complex(mc), closed_form=cf, sigma=float(se[0]))


def weingarten4_check(n: int, indices: Sequence[int], samples: int, seed: int) -> MomentCheck:
    """Monte Carlo check of the fourth-order moment
    `E[U_{i1 j1} U_{i2 j2} U^dag_{k1 l1} U^dag_{k2 l2}]`.

    The closed form is the two-term delta contraction

        [d(i1,l1) d(i2,l2) d(j1,k1) d(j2,k2) + d(i1,l2) d(i2,l1) d(j1,k2) d(j2,k1)] / (N**2 - 1)
      - [d(i1,l1) d(i2,l2) d(j1,k2) d(j2,k1) + d(i1,l2) d(i2,l1) d(j1,k1) d(j2,k2)] / (N (N**2 - 1)).

    Although the samples live on SU(N), balanced moments (equal numbers of U
    and U* factors) coincide with the U(N) Haar moments because the overall
    U(1) phase cancels, so the U(N)-form closed expression applies verbatim
    for every N >= 2.  Columns are drawn as in `weingarten2_check`.
    """
    n, (i1, j1, i2, j2, k1, l1, k2, l2) = _check_moment_args(n, indices, 8, samples)
    direct = (i1 == l1) * (i2 == l2) * (j1 == k1) * (j2 == k2) + (i1 == l2) * (i2 == l1) * (j1 == k2) * (j2 == k1)
    crossed = (i1 == l1) * (i2 == l2) * (j1 == k2) * (j2 == k1) + (i1 == l2) * (i2 == l1) * (j1 == k1) * (j2 == k2)
    cf = direct / (n * n - 1.0) - crossed / (n * (n * n - 1.0))
    mc, se = _haar_average(
        n, seed, samples, lambda u: u[:, i1, j1] * u[:, i2, j2] * u[:, l1, k1].conj() * u[:, l2, k2].conj(),
        _moment_prefix(n, (j1, j2), (k1, k2)),
    )
    return MomentCheck(mc=complex(mc), closed_form=cf, sigma=float(se[0]))
