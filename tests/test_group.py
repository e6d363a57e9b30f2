"""Haar sampling, Euler charts, adjoint frames, and Weingarten moment checks.

The closed-form chart factors and frame vectors are checked against
matrix-exponential and trace-definition oracles built independently here.
"""
import math
import multiprocessing
import os
import subprocess
import sys
import threading
import warnings
from functools import reduce

import numpy as np
import pytest
import scipy.linalg
from hypothesis import given, settings
from hypothesis import strategies as st

from swphase import (
    DomainError,
    EulerSU2,
    EulerSU3,
    PhasePoint,
    ValidationError,
    ad_t_matrix,
    adjoint_matrix,
    adjoint_vector,
    gell_mann_basis,
    haar_batch,
    haar_sample,
    moduli_domain_fraction,
    n3_closed_form,
    n8_closed_form,
    nprime_closed_form,
    nprime_rotation,
    su2_coset,
    su3_from_euler,
    weingarten2_check,
    weingarten4_check,
)
from swphase import _streams, group
from swphase._streams import counter_normals
from swphase.group import _orthonormalize

B3 = gell_mann_basis(3)

in_range_angles = st.tuples(
    st.floats(0.0, 2 * math.pi),  # alpha
    st.floats(0.0, math.pi),      # beta
    st.floats(0.0, 4 * math.pi),  # gamma
    st.floats(0.0, 2 * math.pi),  # a
    st.floats(0.0, math.pi),      # b
    st.floats(0.0, 4 * math.pi),  # c
    st.floats(0.0, math.pi / 2),  # theta
    st.floats(0.0, math.sqrt(3.0) * math.pi),  # phi
)


def euler_via_expm(e: EulerSU3) -> np.ndarray:
    """The chart product built from matrix exponentials only."""
    g = B3.generators

    def v(x, y, z):
        return (
            scipy.linalg.expm(0.5j * x * g[2])
            @ scipy.linalg.expm(0.5j * y * g[1])
            @ scipy.linalg.expm(0.5j * z * g[2])
        )

    return (
        v(e.alpha, e.beta, e.gamma)
        @ scipy.linalg.expm(1j * e.theta * g[4])
        @ v(e.a, e.b, e.c)
        @ scipy.linalg.expm(1j * e.phi * g[7])
    )


# --------------------------------------------------------------------------
# Haar sampling


def lapack_haar(n: int, seed: int, start: int, count: int) -> np.ndarray:
    """Haar samples by LAPACK QR, the phase fix of Mezzadri (2007) and LAPACK det."""
    z = counter_normals(seed, start, count, 2 * n * n)
    g = (z[:, : n * n] + 1j * z[:, n * n :]).reshape(count, n, n) / math.sqrt(2.0)
    q, r = np.linalg.qr(g)
    d = np.einsum("kii->ki", r)
    q *= (d / np.abs(d))[:, None, :]
    q[:, :, 0] /= np.linalg.det(q)[:, None]
    return q


@pytest.mark.parametrize("n", [2, 3, 4, 6, 8])
def test_haar_batch_special_unitary(n):
    u = haar_batch(n, seed=0, start=0, count=100)
    assert u.shape == (100, n, n)
    eye = np.eye(n)
    assert np.max(np.abs(np.einsum("kij,klj->kil", u, u.conj()) - eye)) < 1e-13
    assert np.max(np.abs(np.linalg.det(u) - 1.0)) < 1e-12


def test_haar_partition_independent():
    for n in range(2, 10):
        whole = haar_batch(n, seed=9, start=0, count=23)
        for bounds in ([0, 11, 23], [0, 1, 2, 9, 23]):
            parts = [haar_batch(n, seed=9, start=a, count=b - a) for a, b in zip(bounds, bounds[1:])]
            assert np.array_equal(whole, np.vstack(parts)), (n, bounds)
    # numpy elides temporaries from 2^14 complex samples on, which must not change a sample
    for n in (2, 3, 4):
        whole = haar_batch(n, seed=9, start=0, count=20_000)
        parts = [haar_batch(n, seed=9, start=0, count=1), haar_batch(n, seed=9, start=1, count=19_999)]
        assert np.array_equal(whole, np.vstack(parts)), n


def test_haar_batch_lanes_match_single_slices(monkeypatch):
    # the pool lanes run the slices while the calling thread drains them; 3
    # lanes also exercise the pool on a host with fewer CPUs
    slice_ = 1 << 11
    for n in range(2, 7):
        for start, count in ((0, slice_ + 1), (7, 3 * slice_ + 5), (0, 1 << 16)):
            stop = start + count
            singles = np.vstack([haar_batch(n, 9, a, min(slice_, stop - a)) for a in range(start, stop, slice_)])
            assert np.array_equal(haar_batch(n, 9, start, count), singles), (n, count)
            with monkeypatch.context() as m:
                m.setattr(_streams, "_cores", lambda: 3)
                assert np.array_equal(haar_batch(n, 9, start, count), singles), (n, count, 3)


def test_haar_batch_rejects_bad_ranges():
    for args in ((2, 1, -5, 3), (2, 1, 0, -1), (1, 1, 0, 5)):
        with pytest.raises(DomainError):
            haar_batch(*args)
    assert haar_batch(2, 1, 0, 0).shape == (0, 2, 2)


def test_haar_batch_lane_error_reaches_caller(monkeypatch):
    # two slices: the lane on slice 0 holds it until the lane on slice 1 has failed
    fill = group._haar_slice
    pool_failed = threading.Event()

    def failing(n, seed, start, q):
        if start != 0:
            pool_failed.set()
            raise DomainError("failure in a pool lane")
        pool_failed.wait(timeout=30)
        fill(n, seed, start, q)

    monkeypatch.setattr(group, "_haar_slice", failing)
    monkeypatch.setattr(_streams, "_cores", lambda: 2)
    with pytest.raises(DomainError, match="pool lane"):
        haar_batch(3, 9, 0, (1 << 11) + 1)
    assert pool_failed.is_set()


def _draw_matches(expected):
    sys.exit(0 if np.array_equal(haar_batch(3, 1, 0, 20_000), expected) else 1)


@pytest.mark.filterwarnings("ignore::DeprecationWarning")  # fork with live threads, Python >= 3.12
def test_forked_child_draws_with_its_own_pool(monkeypatch):
    # the child inherits the parent's pool object but none of its threads
    if "fork" not in multiprocessing.get_all_start_methods():
        pytest.skip("no fork start method")
    monkeypatch.setattr(_streams, "_cores", lambda: 2)
    expected = haar_batch(3, 1, 0, 20_000)
    child = multiprocessing.get_context("fork").Process(target=_draw_matches, args=(expected,))
    child.start()
    child.join(timeout=30)
    if child.is_alive():
        child.kill()
        child.join()
        pytest.fail("forked child hung in haar_batch")
    assert child.exitcode == 0


def test_haar_batch_returns_no_lane_buffer():
    # the lanes draw into scratch they reuse; a returned batch must be the caller's own
    first = haar_batch(3, 1, 0, 100)
    kept = first.copy()
    haar_batch(3, 2, 0, 100)
    weingarten2_check(3, (1, 1, 1, 1), 10_000, 3)
    assert np.array_equal(first, kept)
    out = np.empty((100, 3, 6), dtype=complex)[:, :, ::2]  # any layout
    assert haar_batch(3, 1, 0, 100, out=out) is out and np.array_equal(out, kept)


def test_haar_batch_refuses_a_wrong_out_before_drawing():
    # a short, real or single-precision out is refused before a sample is written
    for out in (np.empty((4, 3, 3), dtype=complex), np.zeros((5, 3, 3)), np.zeros((5, 3, 3), dtype=np.complex64)):
        kept = out.copy()
        with pytest.raises(ValidationError, match="out must be a complex array of shape"):
            haar_batch(3, 0, 0, 5, out=out)
        assert np.array_equal(out, kept)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_haar_batch_batch_last_matches_c_order(n):
    # the Monte Carlo slices are batch-last views; N=5 takes the LAPACK determinant, and the
    # count leaves a 5-sample tail slice
    count = _streams._SLICE + 5
    batch = haar_batch(n, 8, 3, count)
    assert batch.flags.c_contiguous
    out = np.empty((n, n, count), dtype=complex).transpose(2, 0, 1)
    assert haar_batch(n, 8, 3, count, out=out) is out
    assert np.array_equal(out, batch)


def test_counter_normals_leave_no_large_scratch(monkeypatch):
    # on a fresh thread with one lane: a large direct draw allocates its own
    # array, and the engine's scratch never holds more than one slice; a Haar
    # slice that takes the normals of one column, straight into its samples,
    # holds one slice of uniforms below its samples and no buffer beside them
    monkeypatch.setattr(_streams, "_cores", lambda: 1)
    sizes, haar_sizes = [], []

    def run():
        counter_normals(0, 0, 10**5, 8)
        moduli_domain_fraction(9, 10**5, 0)  # 8 normals per sample, as above
        sizes.extend(buf.nbytes for buf in _streams._LANE.free)
        group._haar_average(6, 0, 10**4, lambda u: u[:, 0, 0], 1)
        haar_sizes.extend(buf.nbytes for buf in _streams._LANE.free)

    worker = threading.Thread(target=run)
    worker.start()
    worker.join(timeout=30)
    assert not worker.is_alive()
    assert sizes and max(sizes) <= _streams._SLICE * 8 * 8
    # one buffer per nesting level: the slice of samples, then its uniforms (Gram-Schmidt's rows reuse theirs)
    assert len(haar_sizes) == 2 and max(haar_sizes) <= _streams._SLICE * _streams._padded_budget(2 * 6 * 6) * 8


def _peak_rss_mib(samples: int) -> float:
    # VmHWM, not ru_maxrss: a child's ru_maxrss keeps the RSS of the process that forked it
    code = (
        "import sys\n"
        "from swphase import weingarten4_check\n"
        "weingarten4_check(3, (1,) * 8, int(sys.argv[1]), 1)\n"
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-c", code, str(samples)], env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr
    return int(result.stdout) / 1024.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc")
def test_moment_memory_does_not_grow_with_samples():
    assert _peak_rss_mib(1 << 21) <= 1.10 * _peak_rss_mib(1 << 16)


@pytest.mark.parametrize("n", range(2, 10))
def test_haar_batch_matches_lapack_reference(n):
    u = haar_batch(n, seed=4, start=0, count=4096)
    assert np.max(np.abs(u - lapack_haar(n, 4, 0, 4096))) <= 1e-12


@pytest.mark.parametrize("n", [2, 3, 4, 6])
def test_orthonormalize_ill_conditioned(n):
    # last column = first + 1e-11 noise, condition number ~1e12: a single
    # Gram-Schmidt pass leaves errors near 1e-4, the second pass removes them;
    # for N <= 4 the last column is the closed-form one, whose phase comes from
    # a determinant of size ~1e-11
    rng = np.random.default_rng(n)
    g = rng.normal(size=(256, n, n)) + 1j * rng.normal(size=(256, n, n))
    g[:, :, -1] = g[:, :, 0] + 1e-11 * (rng.normal(size=(256, n)) + 1j * rng.normal(size=(256, n)))
    q = g.copy()
    det = _orthonormalize(q)
    assert np.max(np.abs(np.einsum("kji,kjl->kil", q.conj(), q) - np.eye(n))) <= 1e-13
    r = np.einsum("kji,kjl->kil", q.conj(), g)  # R = Q^dag G
    assert np.max(np.abs(np.tril(r, -1))) <= 1e-13
    diag = np.diagonal(r, axis1=1, axis2=2)
    assert np.all(diag.real > 0) and np.max(np.abs(diag.imag)) <= 1e-13
    assert np.max(np.abs(np.abs(det) - 1.0)) <= 1e-13
    assert np.max(np.abs(det - np.linalg.det(q))) <= 1e-13


def test_haar_sample_is_first_of_batch():
    p = haar_sample(3, seed=5)
    assert isinstance(p, PhasePoint)
    assert np.array_equal(p.u, haar_batch(3, seed=5, start=0, count=1)[0])


def test_haar_first_moment():
    # E |U_11|^2 = 1/N under the invariant measure.
    u = haar_batch(3, seed=2, start=0, count=40_000)
    m = np.abs(u[:, 0, 0]) ** 2
    assert abs(m.mean() - 1 / 3) < 5 * m.std() / math.sqrt(m.size)


def test_phase_point_validates_unitarity():
    with pytest.raises(ValidationError):
        PhasePoint(dim_n=2, u=np.ones((2, 2), dtype=complex))
    with pytest.raises(ValidationError, match="non-finite"):
        PhasePoint(dim_n=2, u=np.full((2, 2), np.nan, dtype=complex))


def test_phase_point_chart_is_the_chart_of_its_n():
    # the optional chart tag goes through the record rule with the point
    u2, u3, u4 = (haar_sample(n, 1).u for n in (2, 3, 4))
    assert PhasePoint(3, u3, chart=EulerSU3()).chart.dim_n == 3 and PhasePoint(2, u2, chart=EulerSU2()).chart.dim_n == 2
    for n, u, chart in ((3, u3, EulerSU2()), (2, u2, EulerSU3()), (3, u3, "standard"), (2, u2, 1)):
        with pytest.raises(ValidationError, match="need a PhasePoint and a EulerSU"):
            PhasePoint(n, u, chart=chart)
    with pytest.raises(ValidationError, match="dimension does not match"):
        PhasePoint(4, u4, chart=EulerSU3())


# --------------------------------------------------------------------------
# Euler charts


@settings(max_examples=30, deadline=None)
@given(angles=in_range_angles)
def test_su3_chart_matches_expm(angles):
    e = EulerSU3(*angles)
    point = su3_from_euler(e, B3)
    assert point.chart is e
    np.testing.assert_allclose(point.u, euler_via_expm(e), atol=1e-12)


def test_su3_chart_at_origin_is_identity():
    np.testing.assert_allclose(su3_from_euler(EulerSU3(), B3).u, np.eye(3), atol=1e-15)


def test_su3_chart_needs_qutrit_basis():
    with pytest.raises(ValidationError):
        su3_from_euler(EulerSU3(), gell_mann_basis(4))


@settings(max_examples=30, deadline=None)
@given(alpha=st.floats(0.0, 2 * math.pi), beta=st.floats(0.0, math.pi))
def test_su2_coset_frame(alpha, beta):
    x = su2_coset(EulerSU2(alpha=alpha, beta=beta)).u
    assert abs(np.linalg.det(x) - 1.0) < 1e-14
    sigma = gell_mann_basis(2).generators
    frame = 0.5 * np.einsum("ij,j,lj,mli->m", x, np.diag(sigma[2]), x.conj(), sigma).real
    expected = np.array(
        [-math.cos(alpha) * math.sin(beta), math.sin(alpha) * math.sin(beta), math.cos(beta)]
    )
    np.testing.assert_allclose(frame, expected, atol=1e-13)


def test_out_of_range_angles_warn():
    with pytest.warns(UserWarning, match="theta"):
        EulerSU3(theta=2.0)
    with pytest.warns(UserWarning, match="qubit chart"):
        EulerSU2(beta=4.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        EulerSU3(alpha=1.0, beta=1.0, theta=0.5)  # in range: no warning


def test_out_of_range_warning_names_the_caller():
    # the one chart validator warns at the line that built the chart, not inside group.py
    with pytest.warns(UserWarning) as record:
        EulerSU3(theta=2.0)
        EulerSU2(beta=4.0)
    assert [r.filename for r in record] == [__file__, __file__]


# --------------------------------------------------------------------------
# adjoint machinery


def test_adjoint_matrix_orthogonal_and_composes():
    u = haar_sample(3, seed=21).u
    v = haar_sample(3, seed=22).u
    mu = adjoint_matrix(u, B3)
    np.testing.assert_allclose(mu @ mu.T, np.eye(8), atol=1e-12)
    np.testing.assert_allclose(
        adjoint_matrix(u @ v, B3), mu @ adjoint_matrix(v, B3), atol=1e-12
    )


def test_adjoint_matrix_checks_its_unitary():
    # a NaN or a wrong N is refused in test_validators; a finite non-unitary matrix is refused too
    with pytest.raises(ValidationError, match="not unitary"):
        adjoint_matrix(2.0 * haar_sample(3, seed=21).u, B3)


def test_adjoint_vector_is_matrix_column():
    p = haar_sample(3, seed=33)
    m = adjoint_matrix(p.u, B3)
    n3, n8 = adjoint_vector(p, 3, B3), adjoint_vector(p, 8, B3)
    np.testing.assert_allclose(n3, m[:, 2], atol=1e-13)
    np.testing.assert_allclose(n8, m[:, 7], atol=1e-13)
    # the two Cartan directions stay an orthonormal pair at every phase point
    np.testing.assert_allclose(np.stack([n3, n8]) @ np.stack([n3, n8]).T, np.eye(2), atol=1e-13)


def test_adjoint_vector_rejects_non_cartan_label():
    p = haar_sample(3, seed=1)
    with pytest.raises(DomainError):
        adjoint_vector(p, 5, B3)


@settings(max_examples=40, deadline=None)
@given(angles=in_range_angles)
def test_frame_closed_forms_match_trace_route(angles):
    e = EulerSU3(*angles)
    p = su3_from_euler(e, B3)
    np.testing.assert_allclose(n3_closed_form(e), adjoint_vector(p, 3, B3), atol=1e-12)
    np.testing.assert_allclose(n8_closed_form(e), adjoint_vector(p, 8, B3), atol=1e-12)


@settings(max_examples=25, deadline=None)
@given(
    angles=in_range_angles,
    a2=st.floats(0.0, 2 * math.pi),
    b2=st.floats(0.0, math.pi),
    c2=st.floats(0.0, 4 * math.pi),
    phi2=st.floats(0.0, math.sqrt(3.0) * math.pi),
)
def test_n8_ignores_isotropy_angles(angles, a2, b2, c2, phi2):
    e = EulerSU3(*angles)
    other = EulerSU3(e.alpha, e.beta, e.gamma, a2, b2, c2, e.theta, phi2)
    np.testing.assert_allclose(n8_closed_form(e), n8_closed_form(other), atol=1e-12)


def test_nprime_zero_angles():
    np.testing.assert_allclose(
        nprime_closed_form(0.0, 0.0, 0.0, 0.0),
        [0, 0, math.sqrt(3) / 2, 0, 0, 0, 0, 0.5],
        atol=1e-15,
    )


def adapted_coset_via_expm(alpha, beta, gamma, theta):
    """The four-angle adapted coset factor, from matrix exponentials."""
    g = B3.generators
    h = np.diag([0.0, 1.0, -1.0]).astype(complex)  # su(2) Cartan of the lower-corner embedding

    def vprime(x, y, z):
        return (
            scipy.linalg.expm(0.5j * x * h)
            @ scipy.linalg.expm(0.5j * y * g[6])
            @ scipy.linalg.expm(0.5j * z * h)
        )

    return vprime(alpha, beta, gamma) @ scipy.linalg.expm(1j * theta * g[4])


@pytest.mark.parametrize("seed", range(12))
def test_nprime_matches_trace_definition(seed):
    rng = np.random.default_rng(seed)
    alpha, beta, gamma, theta = rng.uniform(0.0, 2 * math.pi, size=4)
    u = adapted_coset_via_expm(alpha, beta, gamma, theta)
    lam_c = np.diag([2.0, -1.0, -1.0]) / math.sqrt(3.0)
    oracle = 0.5 * np.einsum("ij,jk,lk,mli->m", u, lam_c.astype(complex), u.conj(), B3.generators).real
    np.testing.assert_allclose(nprime_closed_form(alpha, beta, gamma, theta), oracle, atol=1e-12)


def test_ad_t_matrix_frozen_table():
    s = math.sqrt(3.0) / 2.0
    expected = np.zeros((8, 8))
    expected[0, 5] = 1.0
    expected[1, 6] = -1.0
    expected[2, 2] = 0.5
    expected[2, 7] = -s
    expected[3, 3] = 1.0
    expected[4, 4] = -1.0
    expected[5, 0] = 1.0
    expected[6, 1] = -1.0
    expected[7, 2] = -s
    expected[7, 7] = -0.5
    np.testing.assert_allclose(ad_t_matrix(), expected, atol=1e-15)


def test_nprime_rotation_constant_orthogonal():
    r = nprime_rotation()
    np.testing.assert_allclose(r @ r.T, np.eye(8), atol=1e-14)
    parity = np.diag([-1.0, 1.0, 1.0, -1.0, 1.0, 1.0, -1.0, 1.0])
    np.testing.assert_allclose(r, -ad_t_matrix() @ parity, atol=1e-15)


@settings(max_examples=40, deadline=None)
@given(
    alpha=st.floats(0.0, 2 * math.pi),
    beta=st.floats(0.0, math.pi),
    gamma=st.floats(0.0, 4 * math.pi),
    theta=st.floats(0.0, math.pi / 2),
)
def test_adapted_frame_is_rotated_reduced_frame(alpha, beta, gamma, theta):
    e = EulerSU3(alpha=alpha, beta=beta, gamma=gamma, theta=theta)
    lhs = nprime_closed_form(alpha, beta, gamma, theta)
    np.testing.assert_allclose(lhs, nprime_rotation() @ n8_closed_form(e), atol=1e-12)


# --------------------------------------------------------------------------
# Weingarten moments


@pytest.mark.parametrize("n", [2, 3, 4])
def test_weingarten2_diagonal_pattern(n):
    r = weingarten2_check(n, (1, 1, 1, 1), samples=30_000, seed=4)
    assert r.closed_form == pytest.approx(1.0 / n)
    assert abs(r.mc.real - r.closed_form) < 5 * r.sigma


def test_weingarten2_zero_pattern():
    r = weingarten2_check(2, (1, 1, 1, 2), samples=30_000, seed=4)
    assert r.closed_form == 0.0
    assert abs(r.mc) < 5 * r.sigma


@pytest.mark.parametrize(
    "pattern, value",
    [
        ((1, 1, 1, 1, 1, 1, 1, 1), lambda n: 2.0 / (n * (n + 1))),
        ((1, 1, 2, 2, 1, 1, 2, 2), lambda n: 1.0 / (n * n - 1)),
        ((1, 1, 2, 2, 2, 1, 1, 2), lambda n: -1.0 / (n * (n * n - 1))),
        ((1, 1, 2, 1, 1, 1, 2, 1), lambda n: 0.0),
    ],
)
def test_weingarten4_closed_forms(pattern, value):
    n = 3
    r = weingarten4_check(n, pattern, samples=30_000, seed=8)
    assert r.closed_form == pytest.approx(value(n), abs=1e-15)
    assert abs(r.mc.real - r.closed_form) < 5 * r.sigma


def test_weingarten_index_validation():
    with pytest.raises(DomainError):
        weingarten2_check(2, (0, 1, 1, 1), samples=10_000, seed=0)  # 1-based indices
    with pytest.raises(DomainError):
        weingarten2_check(2, (1, 1, 3, 1), samples=10_000, seed=0)  # out of range
    with pytest.raises(DomainError):
        weingarten4_check(2, (1, 1, 1, 1), samples=10_000, seed=0)  # wrong arity
    with pytest.raises(DomainError):
        weingarten2_check(2, (1, 1, 1, 1), samples=10, seed=0)  # too few samples
    with pytest.raises(DomainError):
        weingarten2_check(3, (1.5, 1, 1, 1.9), samples=10_000, seed=1)  # once read as (1, 1, 1, 1)
    for bad in (1.5, math.nan, math.inf, np.float64(1.5), 1 + 0j, 2.0, np.float64(2.0)):  # not integers
        with pytest.raises(DomainError):
            weingarten2_check(3, (bad, 1, 1, 1), samples=10_000, seed=1)
    plain = weingarten2_check(3, (2, 1, 1, 2), samples=10_000, seed=1)
    for two in (np.int64(2),):
        assert weingarten2_check(3, (two, 1, 1, 2), samples=10_000, seed=1) == plain


def test_moments_same_on_any_cpu_count(monkeypatch):
    # slice partials merge in slice order, so the lane count cannot move a bit
    results = []
    for cores in (1, 3):
        monkeypatch.setattr(_streams, "_cores", lambda: cores)
        results.append(weingarten4_check(3, (1, 2, 2, 1, 1, 2, 2, 1), 20_001, 12))
        results.append(weingarten2_check(4, (1, 2, 2, 1), 5 * 2048 + 7, 4))
    assert results[:2] == results[2:]


def test_weingarten_deterministic():
    a = weingarten4_check(3, (1, 2, 2, 1, 1, 2, 2, 1), samples=20_000, seed=12)
    b = weingarten4_check(3, (1, 2, 2, 1, 1, 2, 2, 1), samples=20_000, seed=12)
    assert a.mc == b.mc and a.sigma == b.sigma


def _recorded_prefixes(monkeypatch) -> list:
    prefixes, fill = [], group._haar_slice

    def haar_slice(n, seed, start, q, prefix=None):
        prefixes.append(prefix)
        fill(n, seed, start, q, prefix)

    monkeypatch.setattr(group, "_haar_slice", haar_slice)
    return prefixes


def _moment_integrand(pattern):
    # the product of the U entries, then of the conjugated U^dag ones, in the order the checks take it
    idx = [i - 1 for i in pattern]
    direct, conjugate = ([(idx[a], idx[a + 1]) for a in range(0, len(idx) // 2, 2)],
                         [(idx[a + 1], idx[a]) for a in range(len(idx) // 2, len(idx), 2)])
    return lambda u: reduce(np.multiply, [u[:, i, j] for i, j in direct] + [u[:, i, j].conj() for i, j in conjugate])


WHOLE_SAMPLE_MOMENTS = [
    (weingarten2_check, 3, (1, 1, 2, 2)),  # U reads column 0, U* does not
    (weingarten2_check, 3, (1, 2, 1, 1)),  # U* reads column 0, U does not
    (weingarten2_check, 3, (1, 3, 3, 1)),  # the last column
    (weingarten2_check, 4, (2, 4, 4, 2)),
    (weingarten4_check, 3, (1, 1, 2, 1, 1, 1, 2, 1)),  # two U factors on column 0, one U*
    (weingarten4_check, 3, (1, 3, 1, 1, 3, 1, 1, 1)),  # balanced, but reads the last column
    (weingarten4_check, 2, (1, 2, 2, 1, 1, 2, 2, 1)),
]


@pytest.mark.parametrize(
    ("check", "n", "pattern"), WHOLE_SAMPLE_MOMENTS,
    ids=[f"{check.__name__} N={n} {pattern}" for check, n, pattern in WHOLE_SAMPLE_MOMENTS],
)
def test_moments_that_need_whole_samples_keep_their_bits(check, n, pattern, monkeypatch):
    # det Q on column 0 does not cancel in these, or the prefix would reach the last column: they average
    # over whole SU(N) samples, the samples of haar_batch, bit for bit as before prefixes existed
    prefixes = _recorded_prefixes(monkeypatch)
    result = check(n, pattern, 10_000, 3)
    assert set(prefixes) == {None}
    mean, se = group._haar_average(n, 3, 10_000, _moment_integrand(pattern))
    assert (result.mc, result.sigma) == (complex(mean), float(se[0]))


BALANCED_MOMENTS = [
    (weingarten2_check, 2, (1, 1, 1, 1), 1),
    (weingarten2_check, 6, (2, 1, 1, 2), 1),
    (weingarten2_check, 4, (1, 3, 3, 1), 3),
    (weingarten4_check, 3, (1, 1, 2, 2, 1, 1, 2, 2), 2),
    (weingarten4_check, 6, (1, 1, 1, 1, 1, 1, 1, 1), 1),
]


@pytest.mark.parametrize(
    ("check", "n", "pattern", "columns"), BALANCED_MOMENTS,
    ids=[f"{check.__name__} N={n} {pattern}" for check, n, pattern, _ in BALANCED_MOMENTS],
)
def test_balanced_moments_draw_only_the_columns_they_read(check, n, pattern, columns, monkeypatch):
    # as many U as U* factors read column 0, so det Q cancels: the columns read suffice, and the result
    # is the whole-sample average to round-off
    prefixes = _recorded_prefixes(monkeypatch)
    result = check(n, pattern, 10_000, 3)
    assert set(prefixes) == {columns}
    mean, se = group._haar_average(n, 3, 10_000, _moment_integrand(pattern))
    assert abs(result.mc - complex(mean)) <= 1e-15 and abs(result.sigma - float(se[0])) <= 1e-15


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_haar_slice_prefix_keeps_the_columns_of_the_whole_sample(n):
    # the same normals and Gram-Schmidt: columns 1 .. c-1 bit for bit, column 0 before its division by det Q
    count, whole = 300, haar_batch(n, 6, 5, 300)
    for c in range(1, n):
        q = np.full((n, n, count), np.nan, dtype=complex).transpose(2, 0, 1)
        group._haar_slice(n, 6, 5, q, c)
        assert np.array_equal(q[:, :, 1:c], whole[:, :, 1:c])
        undivided = whole.copy()
        undivided[:, :, 0] = q[:, :, 0]  # the sample before the SU(N) move, whose det Q divides column 0
        assert np.max(np.abs(q[:, :, 0] / np.linalg.det(undivided)[:, None] - whole[:, :, 0])) <= 1e-14
        assert np.all(np.isnan(q[:, :, c:]))  # the rest is neither drawn nor projected


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_haar_slice_draws_the_normals_of_counter_normals_into_the_columns_it_fills(n, monkeypatch):
    # only the words of the columns filled pass through ndtri, straight into the slice: what Gram-Schmidt gets is
    # the words of counter_normals bit for bit, in batch-last slices and C-ordered ones (haar_batch), and a column
    # at or beyond the prefix keeps what it held
    drawn, orthonormalize = [], group._orthonormalize

    def capture(g, prefix=None):
        drawn.append(g.copy())
        return orthonormalize(g, prefix)

    monkeypatch.setattr(group, "_orthonormalize", capture)
    count = 300
    z = counter_normals(6, 5, count, 2 * n * n).reshape(count, 2, n, n)
    for c in [*range(1, n), None]:
        for q in (np.full((n, n, count), np.nan, complex).transpose(2, 0, 1), np.full((count, n, n), np.nan, complex)):
            group._haar_slice(n, 6, 5, q, c)
            g = drawn.pop()
            for part, words in ((g.real, z[:, 0]), (g.imag, z[:, 1])):
                assert np.ascontiguousarray(part[:, :, :c]).tobytes() == np.ascontiguousarray(words[:, :, :c]).tobytes()
            assert np.all(np.isnan(g[:, :, n if c is None else c :]))
