"""Wigner values, closed forms vs trace forms, reconstruction, and postulate checks."""
import math
import os
import subprocess
import sys
import threading

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from swphase import (
    DensityState,
    DomainError,
    EulerSU2,
    EulerSU3,
    InvalidStateError,
    ValidationError,
    assemble_kernel,
    chart_wf,
    check_covariance,
    check_norm,
    check_standardisation,
    check_traciality,
    gell_mann_basis,
    haar_batch,
    haar_sample,
    kernel_chart,
    kernel_diagonal,
    moduli_point,
    qubit_wf,
    qutrit_mu,
    qutrit_wf,
    reconstruct_state,
    rho_from_bloch,
    seeded_hermitian,
    state_wf_sampler,
    su2_coset,
    su3_from_euler,
    wigner_closed_form,
    wigner_value,
)
from swphase import _streams
from swphase.wigner import _closed_form, _delta_batch, _symbol_batch
from conftest import ball_vector

B2 = gell_mann_basis(2)
B3 = gell_mann_basis(3)
MU2 = moduli_point(2, [1.0])


def random_angles(rng, in_range=True):
    if in_range:
        bounds = [2 * math.pi, math.pi, 4 * math.pi, 2 * math.pi, math.pi, 4 * math.pi,
                  math.pi / 2, math.sqrt(3.0) * math.pi]
        return EulerSU3(*(rng.uniform(0.0, b) for b in bounds))
    return EulerSU3(*rng.uniform(0.0, 2 * math.pi, size=8))


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize("n", [2, 3, 4])
def test_closed_form_matches_trace_form(n, seed):
    rng = np.random.default_rng(seed)
    xi = ball_vector(rng, n * n - 1, rng.uniform(0.0, 1.0 / (n - 1)))
    state = rho_from_bloch(n, xi)
    v = rng.normal(size=n - 1)
    p = moduli_point(n, v / np.linalg.norm(v))
    point = haar_sample(n, seed=seed + 50)
    basis = gell_mann_basis(n)
    w_closed = wigner_closed_form(xi, p, point, basis)
    w_trace = wigner_value(state, assemble_kernel(p, point.u, basis))
    assert w_closed == pytest.approx(w_trace, abs=1e-12)


def test_maximally_mixed_is_flat():
    for n in (2, 3):
        xi = np.zeros(n * n - 1)
        v = np.ones(n - 1) / math.sqrt(n - 1)
        p = moduli_point(n, v)
        point = haar_sample(n, seed=9)
        assert wigner_closed_form(xi, p, point, gell_mann_basis(n)) == 1.0 / n
        state = rho_from_bloch(n, xi)
        kernel = assemble_kernel(p, point.u, gell_mann_basis(n))
        assert wigner_value(state, kernel) == pytest.approx(1.0 / n, abs=1e-14)


@pytest.mark.parametrize("seed", range(8))
def test_qubit_wf_matches_trace_form(seed):
    rng = np.random.default_rng(seed)
    r = ball_vector(rng, 3, rng.uniform(0.0, 1.0))
    e = EulerSU2(alpha=rng.uniform(0, 2 * math.pi), beta=rng.uniform(0, math.pi))
    kernel = assemble_kernel(MU2, su2_coset(e).u, B2)
    assert qubit_wf(r, e) == pytest.approx(wigner_value(rho_from_bloch(2, r), kernel), abs=1e-12)


def test_qubit_wf_rejects_outside_ball():
    with pytest.raises(InvalidStateError):
        qubit_wf([1.2, 0.0, 0.0], EulerSU2())
    with pytest.raises(ValidationError):
        qubit_wf([1.0, 0.0], EulerSU2())


@pytest.mark.parametrize("nu", [-0.95, -0.6, -0.4, -1.0, -1.0 / 3.0])
@pytest.mark.parametrize("seed", [3, 11])
def test_qutrit_wf_matches_trace_form(nu, seed):
    rng = np.random.default_rng(seed)
    xi = ball_vector(rng, 8, rng.uniform(0.0, 0.5))
    e = random_angles(rng)
    kernel = assemble_kernel(qutrit_mu(nu), su3_from_euler(e, B3).u, B3)
    w = wigner_value(rho_from_bloch(3, xi), kernel)
    assert qutrit_wf(xi, nu, e, B3) == pytest.approx(w, abs=1e-12)


def test_qutrit_wf_continuous_at_endpoints():
    # The spectral gap closes like sqrt(1 + nu) at the lower endpoint, so a
    # 1e-6 step in nu moves the function by O(1e-3) there; the upper endpoint
    # is smooth and admits a much tighter band.
    rng = np.random.default_rng(0)
    xi = ball_vector(rng, 8, 0.45)
    e = random_angles(rng)
    for endpoint, tol in ((-1.0, 5e-3), (-1.0 / 3.0, 1e-5)):
        inner = endpoint + 1e-6 if endpoint == -1.0 else endpoint - 1e-6
        assert qutrit_wf(xi, inner, e, B3) == pytest.approx(
            qutrit_wf(xi, endpoint, e, B3), abs=tol
        )


def test_reduced_form_ignores_isotropy_angles():
    rng = np.random.default_rng(4)
    xi = ball_vector(rng, 8, 0.4)
    base = EulerSU3(alpha=1.0, beta=0.7, gamma=2.0, theta=0.8)
    moved = EulerSU3(alpha=1.0, beta=0.7, gamma=2.0, a=2.2, b=1.4, c=5.0, theta=0.8, phi=3.0)
    assert qutrit_wf(xi, -1.0, base, B3) == pytest.approx(
        qutrit_wf(xi, -1.0, moved, B3), abs=1e-12
    )


def adapted_point_via_expm(alpha, beta, gamma, theta):
    h = np.diag([0.0, 1.0, -1.0]).astype(complex)
    vp = (
        scipy.linalg.expm(0.5j * alpha * h)
        @ scipy.linalg.expm(0.5j * beta * B3.generators[6])
        @ scipy.linalg.expm(0.5j * gamma * h)
    )
    return vp @ scipy.linalg.expm(1j * theta * B3.generators[4])


@pytest.mark.parametrize("seed", range(6))
def test_adapted_chart_matches_trace_form(seed):
    rng = np.random.default_rng(seed)
    xi = ball_vector(rng, 8, rng.uniform(0.0, 0.5))
    alpha, beta, gamma, theta = rng.uniform(0.0, 2 * math.pi, size=4)
    u = adapted_point_via_expm(alpha, beta, gamma, theta)
    kernel = assemble_kernel(qutrit_mu(-1.0 / 3.0), u, B3)
    w = wigner_value(rho_from_bloch(3, xi), kernel)
    chart = kernel_chart(qutrit_mu(-1.0 / 3.0))
    # beta and theta are drawn beyond their chart ranges, which EulerSU3 warns of and allows
    with pytest.warns(UserWarning, match="outside the chart ranges"):
        got = chart_wf(xi, -1.0 / 3.0, chart, dict(alpha=alpha, beta=beta, gamma=gamma, theta=theta))
    assert got == pytest.approx(w, abs=1e-12)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3]))
def test_trace_form_and_chart_read_the_same_state(seed, n):
    # tr(rho Delta) reads the state's rho, chart_wf its Bloch vector: one record holds both
    rng = np.random.default_rng(seed)
    state = DensityState(n, ball_vector(rng, n * n - 1, rng.uniform(0.0, 1.0 / (n - 1))))
    if n == 2:
        p, e = MU2, EulerSU2(alpha=rng.uniform(0, 2 * math.pi), beta=rng.uniform(0, math.pi))
        u, chart = su2_coset(e).u, kernel_chart(MU2)
    else:
        p, e = qutrit_mu(rng.uniform(-1.0, -1.0 / 3.0)), random_angles(rng)
        u, chart = su3_from_euler(e, B3).u, kernel_chart(qutrit_mu(-0.5))  # the standard chart serves every kernel
    w = wigner_value(state, assemble_kernel(p, u, gell_mann_basis(n)))
    assert chart_wf(state, p, chart, {name: getattr(e, name) for name in chart.angles}) == pytest.approx(w, abs=1e-12)


def test_chart_wf_takes_a_built_state_or_checks_a_vector():
    qubit = moduli_point(2, [1.0])
    chart = kernel_chart(qubit)
    angles = dict(alpha=np.linspace(0.0, 6.0, 5), beta=np.full(5, 0.7))
    xi = np.array([0.1, -0.2, 0.3])
    assert np.array_equal(chart_wf(rho_from_bloch(2, xi), qubit, chart, angles), chart_wf(xi, qubit, chart, angles))
    with pytest.raises(InvalidStateError):
        chart_wf(np.array([0.0, 0.0, 2.0]), qubit, chart, angles)
    with pytest.raises(ValidationError, match="dimension"):
        chart_wf(rho_from_bloch(3, np.zeros(8)), qubit, chart, angles)


@pytest.mark.parametrize("n", [2, 3])
def test_stacked_frame_gives_the_flattened_values(n):
    # a frame stacked on a grid's shape, as an open mesh of angles gives it, is evaluated as its
    # (points, N**2-1) table is, bit for bit; one point as the one row of a table
    rng = np.random.default_rng(n)
    xi = ball_vector(rng, n * n - 1, 0.4)
    frame = rng.standard_normal((7, 5, 3, n * n - 1))
    w = _closed_form(xi, frame)
    assert w.shape == (7, 5, 3)
    assert np.array_equal(w.ravel(), _closed_form(xi, frame.reshape(-1, n * n - 1)))
    assert _closed_form(xi, frame[1, 2, 0]) == _closed_form(xi, frame[1, 2, 0][None])[0]


def test_qutrit_wf_rejects_bad_inputs():
    with pytest.raises(InvalidStateError):
        qutrit_wf(np.ones(8), -0.5, EulerSU3(), B3)
    with pytest.raises(DomainError):
        qutrit_wf(np.zeros(8), -0.2, EulerSU3(), B3)


# --------------------------------------------------------------------------
# reconstruction


def test_reconstruction_roundtrip_qubit():
    state = rho_from_bloch(2, [0.6, 0.0, 0.8])
    result = reconstruct_state(state_wf_sampler(state, MU2), 2, MU2, 20_000, seed=3)
    err = np.linalg.norm(result.rho_hat - state.rho)
    assert err < 5e-2
    assert 0.2 < err / result.frobenius_error_estimate < 5.0
    assert result.antihermitian_residue < 1e-15  # Hermitized estimate keeps the residue out
    assert np.max(np.abs(result.rho_hat - result.rho_hat.conj().T)) == 0.0


def test_reconstruction_error_scales_with_samples():
    p = qutrit_mu(-0.5)
    state = rho_from_bloch(3, np.full(8, 0.12))
    sampler = state_wf_sampler(state, p)
    e1 = np.linalg.norm(reconstruct_state(sampler, 3, p, 8_000, seed=6).rho_hat - state.rho)
    e4 = np.linalg.norm(reconstruct_state(sampler, 3, p, 32_000, seed=6).rho_hat - state.rho)
    assert e1 / e4 > 1.2  # noisy single-config ratio, loose band


def test_reconstruction_deterministic():
    state = rho_from_bloch(2, [0.0, 0.3, 0.4])
    a = reconstruct_state(state_wf_sampler(state, MU2), 2, MU2, 4_000, seed=1)
    b = reconstruct_state(state_wf_sampler(state, MU2), 2, MU2, 4_000, seed=1)
    assert np.array_equal(a.rho_hat, b.rho_hat)


def test_reconstruction_guards():
    state = rho_from_bloch(2, [0.0, 0.0, 0.5])
    with pytest.raises(DomainError):
        reconstruct_state(state_wf_sampler(state, MU2), 2, MU2, 500, seed=0)
    with pytest.raises(ValidationError):
        reconstruct_state(lambda u: np.zeros(3), 2, MU2, 2_000, seed=0)
    # a moduli point of another dimension, caught by kernel_diagonal
    with pytest.raises(ValidationError, match="does not match"):
        state_wf_sampler(rho_from_bloch(3, np.zeros(8)), MU2)
    with pytest.raises(ValidationError, match="does not match"):
        reconstruct_state(lambda u: np.zeros(len(u)), 3, MU2, 2_000, seed=0)
    # a NaN or an infinity from the sampler is refused, not averaged into rho_hat
    for bad in (math.nan, math.inf):
        with pytest.raises(ValidationError, match="non-finite Wigner values"):
            reconstruct_state(lambda u: np.full(len(u), bad), 3, qutrit_mu(-0.5), 1_000, seed=0)


def test_lane_holds_one_slice_buffer_per_nesting_level(monkeypatch):
    # on a fresh thread with one lane: the slice's unitaries are one level, and the normals, the
    # Gram-Schmidt rows and the conjugates for the kernels share the level below
    monkeypatch.setattr(_streams, "_cores", lambda: 1)
    n, p = 6, moduli_point(6, [0.2, 0.4, 0.4, 0.4, math.sqrt(0.48)])
    held = []

    def run():
        check_traciality(seeded_hermitian(n, 1), seeded_hermitian(n, 2), p, _streams._SLICE + 5, seed=1)
        reconstruct_state(state_wf_sampler(rho_from_bloch(n, np.zeros(n * n - 1)), p), n, p, _streams._SLICE + 5, 2)
        held.append(sum(buf.nbytes for buf in _streams._LANE.free))

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=60)
    assert held and held[0] <= 2 * _streams._SLICE * n * n * 16


def test_seeded_hermitian_needs_n_of_two_or_more():
    # N < 2 is refused, as by every other entry that takes N
    for n in (1, 0, 2.5):
        with pytest.raises(DomainError):
            seeded_hermitian(n, 0)


def test_engine_results_same_on_any_cpu_count(monkeypatch):
    p = qutrit_mu(-0.5)
    state = rho_from_bloch(3, np.full(8, 0.1))
    a, b = seeded_hermitian(3, 41), seeded_hermitian(3, 42)
    results = []
    for cores in (1, 3):
        monkeypatch.setattr(_streams, "_cores", lambda: cores)
        r = reconstruct_state(state_wf_sampler(state, p), 3, p, 20_001, seed=5)
        results.append((r.rho_hat.tobytes(), r.frobenius_error_estimate, r.antihermitian_residue))
        results.append(check_traciality(a, b, p, 20_001, seed=6))
    assert results[:2] == results[2:]


def test_sampler_error_in_pool_lane_reaches_caller(monkeypatch):
    # two slices: the lane on slice 0 holds it until the lane on slice 1 has failed
    monkeypatch.setattr(_streams, "_cores", lambda: 2)
    pool_failed = threading.Event()
    first = haar_batch(2, 0, 0, 1)[0]  # sample 0 opens slice 0

    def sampler(u):
        if not np.array_equal(u[0], first):
            pool_failed.set()
            return np.zeros(3)
        pool_failed.wait(timeout=30)
        return np.zeros(len(u))

    with pytest.raises(ValidationError, match="wf_sampler returned shape"):
        reconstruct_state(sampler, 2, MU2, 2 * 2048, seed=0)
    assert pool_failed.is_set()


_NESTED = """
import sys
import numpy as np
from swphase import _streams, qutrit_mu, reconstruct_state, rho_from_bloch, state_wf_sampler, haar_batch, weingarten2_check
_streams._cores = lambda: 3  # pool lanes even on a small host
p = qutrit_mu(-0.5)
plain = state_wf_sampler(rho_from_bloch(3, np.full(8, 0.1)), p)
inner = {"haar": lambda: haar_batch(3, 1, 0, 3 * 2048 + 5), "moment": lambda: weingarten2_check(3, (1, 1, 1, 1), 10000, 2)}

def nested(u):
    inner[sys.argv[1]]()
    return plain(u)

a = reconstruct_state(plain, 3, p, 5 * 2048 + 3, seed=4)
b = reconstruct_state(nested, 3, p, 5 * 2048 + 3, seed=4)
sys.exit(0 if np.array_equal(a.rho_hat, b.rho_hat) and a[1:] == b[1:] else 1)
"""


@pytest.mark.parametrize("inner", ["haar", "moment"])
def test_nested_monte_carlo_in_sampler(inner):
    # a Monte Carlo call inside a lane runs on that lane: no deadlock, and its
    # scratch is not the slice the outer call is still reading
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", _NESTED, inner], env=env, capture_output=True, timeout=30)
    assert result.returncode == 0, result.stderr


def test_sampler_matches_pointwise_values():
    state = rho_from_bloch(3, np.full(8, -0.1))
    p = qutrit_mu(-0.8)
    sampler = state_wf_sampler(state, p)
    point = haar_sample(3, seed=2)
    batch = sampler(point.u[None, :, :])
    w = wigner_value(state, assemble_kernel(p, point.u, B3))
    assert batch[0] == pytest.approx(w, abs=1e-13)


# --------------------------------------------------------------------------
# postulate checks


def test_norm_check_trivial_on_mixed_state():
    result = check_norm(rho_from_bloch(2, np.zeros(3)), MU2, 2_000, seed=0)
    assert result.mc == pytest.approx(1.0, abs=1e-13)
    assert result.sigma < 1e-13


@pytest.mark.parametrize("moduli", [qutrit_mu(-0.5), moduli_point(4, [0.6, 0.0, 0.8])])
def test_norm_check_exact_on_maximally_mixed_state(moduli):
    # N W is 1 at every sample: the merged variance must stay at round-off
    n = moduli.dim_n
    result = check_norm(rho_from_bloch(n, np.zeros(n * n - 1)), moduli, 20_001, seed=0)
    assert abs(result.mc - 1.0) <= 1e-15
    assert result.sigma <= 1e-15


def test_norm_sigma_matches_two_pass_std():
    # Bloch entries of 1e-9: the spread is tiny next to the mean, where a
    # one-pass sum of squares loses it
    p = qutrit_mu(-0.5)
    state = rho_from_bloch(3, np.full(8, 1e-9))
    samples = 20_001
    result = check_norm(state, p, samples, seed=1)
    u = haar_batch(3, 1, 0, samples)
    values = 3 * _symbol_batch(_delta_batch(u, kernel_diagonal(p, B3)), state.rho)
    assert result.sigma == pytest.approx(values.std() / math.sqrt(samples), rel=1e-6)


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_kernel_and_symbol_bits_do_not_depend_on_layout(n):
    # the Monte Carlo slices are batch-last views; the symbols keep the bits of the
    # C-ordered `tr(A Delta)` einsum the golden corpus was made with
    u = haar_batch(n, 2, 0, 300)
    view = np.empty((n, n, len(u)), dtype=complex).transpose(2, 0, 1)
    view[...] = u
    diag = np.linspace(1.0, -0.5, n)
    a = seeded_hermitian(n, 5)
    delta, moved = _delta_batch(u, diag), _delta_batch(view, diag)
    assert np.array_equal(moved, delta)
    symbols = np.einsum("kil,li->k", delta, a).real
    assert np.array_equal(_symbol_batch(delta, a), symbols) and np.array_equal(_symbol_batch(moved, a), symbols)


def test_reconstruction_sums_c_ordered_terms():
    # one slice: the estimate is the plain mean of the C-ordered terms, bit for bit, whatever
    # the layout the slice is drawn in
    p, state, samples = qutrit_mu(-0.5), rho_from_bloch(3, np.full(8, 0.1)), 2000
    u = haar_batch(3, 6, 0, samples)
    diag = kernel_diagonal(p, B3)
    w = _symbol_batch(_delta_batch(u, diag), state.rho)
    mean = (3 * w[:, None, None] * _delta_batch(u, diag)).mean(axis=0)
    rho_hat = reconstruct_state(state_wf_sampler(state, p), 3, p, samples, 6).rho_hat
    assert np.array_equal(rho_hat, (mean + mean.conj().T) / 2.0)


def test_norm_check_statistical():
    state = rho_from_bloch(3, ball_vector(np.random.default_rng(1), 8, 0.45))
    result = check_norm(state, qutrit_mu(-1.0 / 3.0), 30_000, seed=1)
    assert abs(result.mc - 1.0) < 5 * result.sigma


def test_standardisation_check():
    a = seeded_hermitian(3, seed=40)
    result = check_standardisation(a, qutrit_mu(-0.5), 30_000, seed=2)
    assert result.target == pytest.approx(np.trace(a).real)
    assert abs(result.mc - result.target) < 5 * result.sigma


def test_traciality_check():
    a = seeded_hermitian(2, seed=41)
    b = seeded_hermitian(2, seed=42)
    result = check_traciality(a, b, MU2, 30_000, seed=3)
    assert result.target == pytest.approx(np.trace(a @ b).real)
    assert abs(result.mc - result.target) < 5 * result.sigma


def test_checks_validate_operators():
    with pytest.raises(ValidationError):
        check_standardisation(np.triu(np.ones((3, 3))), qutrit_mu(-0.5), 2_000, seed=0)
    with pytest.raises(ValidationError):
        check_traciality(np.eye(2), np.eye(3), MU2, 2_000, seed=0)


def test_covariance_residual_roundoff():
    rng = np.random.default_rng(7)
    state = rho_from_bloch(3, ball_vector(rng, 8, 0.3))
    residual = check_covariance(state, haar_sample(3, seed=8), qutrit_mu(-0.6), haar_sample(3, seed=9).u)
    assert residual < 1e-12


def test_covariance_under_permutation_group_element():
    # The eigenstate-swap permutation, phase-fixed into the special unitary group.
    g = np.array([[0, 0, -1], [0, 1, 0], [1, 0, 0]], dtype=complex)
    state = rho_from_bloch(3, np.full(8, 0.1))
    residual = check_covariance(state, haar_sample(3, seed=10), qutrit_mu(-0.5), g)
    assert residual < 1e-12


def test_covariance_validates_group_element():
    state = rho_from_bloch(2, [0.0, 0.0, 0.5])
    with pytest.raises(ValidationError):
        check_covariance(state, haar_sample(2, seed=0), MU2, np.ones((2, 2)))


def test_covariance_detects_noncovariant_kernel(monkeypatch):
    # U^dag P U has the right spectrum at every point but moves the wrong way under g
    import swphase.wigner

    original = swphase.wigner.assemble_kernel
    monkeypatch.setattr(
        swphase.wigner, "assemble_kernel", lambda p, u, basis: original(p, np.asarray(u).conj().T, basis)
    )
    rng = np.random.default_rng(7)
    state = rho_from_bloch(3, ball_vector(rng, 8, 0.3))
    residual = check_covariance(state, haar_sample(3, seed=8), qutrit_mu(-0.6), haar_sample(3, seed=9).u)
    assert residual > 1e-12


def test_qutrit_wf_detects_flipped_moduli(monkeypatch):
    # -mu is a valid kernel too, so the postulate checks pass under the flip;
    # the closed form must still disagree with the kernel it was asked for
    import swphase.wigner

    original = swphase.wigner.qutrit_mu
    monkeypatch.setattr(swphase.wigner, "qutrit_mu", lambda nu: moduli_point(3, -original(nu).mu))
    rng = np.random.default_rng(3)
    xi = ball_vector(rng, 8, 0.4)
    e = random_angles(rng)
    w = wigner_value(rho_from_bloch(3, xi), assemble_kernel(qutrit_mu(-0.6), su3_from_euler(e, B3).u, B3))
    assert abs(qutrit_wf(xi, -0.6, e, B3) - w) > 1e-12
