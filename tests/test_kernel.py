"""Kernel spectra, the qutrit family, moduli geometry, and kernel assembly."""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swphase import (
    QUTRIT_NU_MAX,
    QUTRIT_NU_MIN,
    DomainError,
    KernelMatrix,
    KernelSpectrum,
    ValidationError,
    assemble_kernel,
    gell_mann_basis,
    haar_sample,
    isotropy_signature,
    kernel_diagonal,
    moduli_canonicalize,
    moduli_domain_fraction,
    moduli_point,
    nu_from_zeta,
    qutrit_det_invariant,
    qutrit_mu,
    qutrit_spectrum,
    spectrum_from_moduli,
    verify_master,
    zeta_from_nu,
)

from swphase import _streams
from swphase._streams import counter_normals

SQ3 = math.sqrt(3.0)


def random_moduli(n, seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n - 1)
    return moduli_point(n, v / np.linalg.norm(v))


def test_qubit_spectrum_unique():
    spec = spectrum_from_moduli(moduli_point(2, [1.0]), gell_mann_basis(2))
    np.testing.assert_allclose(
        spec.eigenvalues, [(1 + SQ3) / 2, (1 - SQ3) / 2], atol=1e-14
    )
    assert spec.multiplicities == (1, 1)
    assert not spec.degenerate


@pytest.mark.parametrize("nu", np.linspace(-1.0, -1.0 / 3.0, 13))
def test_family_satisfies_master_equations(nu):
    trace_res, purity_res = verify_master(qutrit_spectrum(nu))
    assert trace_res < 1e-12
    assert purity_res < 1e-12


def test_verify_master_accepts_raw_candidates():
    # A uniform spectrum has unit trace but fails the purity equation.
    trace_res, purity_res = verify_master([1 / 3] * 3)
    assert trace_res < 1e-15
    assert purity_res == pytest.approx(3.0 - 1.0 / 3.0, abs=1e-12)


def test_qutrit_endpoint_spectra():
    np.testing.assert_allclose(qutrit_spectrum(-1.0).eigenvalues, [1.0, 1.0, -1.0], atol=1e-12)
    np.testing.assert_allclose(
        qutrit_spectrum(-1.0 / 3.0).eigenvalues, [5 / 3, -1 / 3, -1 / 3], atol=1e-12
    )
    assert qutrit_spectrum(-1.0).multiplicities == (2, 1)
    assert qutrit_spectrum(-1.0 / 3.0).multiplicities == (1, 2)
    assert qutrit_spectrum(-1.0).degenerate
    assert qutrit_spectrum(-0.5).multiplicities == (1, 1, 1)


def test_family_spectrum_is_descending():
    for nu in np.linspace(-1.0, -1.0 / 3.0, 29):
        eigs = qutrit_spectrum(nu).eigenvalues
        assert np.all(np.diff(eigs) <= 1e-15)


def test_qutrit_mu_endpoints():
    np.testing.assert_allclose(qutrit_mu(-1.0).mu, [0.0, 1.0], atol=1e-15)
    np.testing.assert_allclose(qutrit_mu(-1.0 / 3.0).mu, [SQ3 / 2, 0.5], atol=1e-15)
    mu = qutrit_mu(-0.5).mu
    assert mu @ mu == pytest.approx(1.0, abs=1e-15)
    assert mu[1] == pytest.approx(2.5 / 4.0, abs=1e-12)


def test_nu_snaps_onto_endpoints():
    # Ten-digit decimal inputs land just outside the closed interval.
    assert qutrit_spectrum(-0.3333333333).degenerate
    assert qutrit_mu(-1.0 - 5e-10).mu[0] == 0.0
    with pytest.raises(DomainError):
        qutrit_spectrum(-0.33333)
    with pytest.raises(DomainError):
        qutrit_mu(0.5)


def test_spectrum_from_moduli_matches_family(basis3):
    for nu in (-0.9, -0.6, -0.4):
        via_moduli = spectrum_from_moduli(qutrit_mu(nu), basis3)
        np.testing.assert_allclose(
            via_moduli.eigenvalues, qutrit_spectrum(nu).eigenvalues, atol=1e-12
        )


@settings(max_examples=40, deadline=None)
@given(zeta=st.floats(0.0, math.pi / 3.0))
def test_zeta_parameterization_roundtrip(zeta):
    nu = nu_from_zeta(zeta)
    assert QUTRIT_NU_MIN - 1e-12 <= nu <= QUTRIT_NU_MAX + 1e-12
    assert zeta_from_nu(nu) == pytest.approx(zeta, abs=1e-7)


def test_det_invariant_closed_form():
    for zeta in np.linspace(0.0, math.pi / 3.0, 17):
        spec = qutrit_spectrum(nu_from_zeta(zeta))
        expected = 16.0 / 27.0 * math.cos(3.0 * zeta)
        assert qutrit_det_invariant(spec) == pytest.approx(expected, abs=1e-10)


def test_det_invariant_needs_qutrit():
    with pytest.raises(DomainError):
        qutrit_det_invariant([1.0, 1.0])


@pytest.mark.parametrize("n", [2, 3, 4])
def test_kernel_diagonal_master_sums(n):
    diag = kernel_diagonal(random_moduli(n, seed=n), gell_mann_basis(n))
    assert diag.sum() == pytest.approx(1.0, abs=1e-12)
    assert (diag**2).sum() == pytest.approx(float(n), abs=1e-12)


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]))
def test_canonicalize(seed, n):
    basis = gell_mann_basis(n)
    p = random_moduli(n, seed)
    canonical, perm = moduli_canonicalize(p, basis)
    assert sorted(perm) == list(range(n))
    diag = kernel_diagonal(canonical, basis)
    assert np.all(np.diff(diag) <= 1e-12)  # descending
    # the unordered spectrum is untouched
    np.testing.assert_allclose(
        np.sort(kernel_diagonal(p, basis)), np.sort(diag), atol=1e-10
    )
    again, perm2 = moduli_canonicalize(canonical, basis)
    np.testing.assert_allclose(again.mu, canonical.mu, atol=1e-12)
    assert perm2 == list(range(n))


def test_canonicalize_applies_recorded_permutation(basis3):
    p = random_moduli(3, seed=99)
    canonical, perm = moduli_canonicalize(p, basis3)
    diag = kernel_diagonal(p, basis3)
    np.testing.assert_allclose(diag[perm], kernel_diagonal(canonical, basis3), atol=1e-12)


def test_domain_fraction_qubit_exact():
    assert moduli_domain_fraction(2, 1000, seed=0) == 0.5


def test_domain_fraction_qutrit():
    fraction = moduli_domain_fraction(3, 200_000, seed=1)
    assert fraction == moduli_domain_fraction(3, 200_000, seed=1)
    sigma = math.sqrt((1 / 6) * (5 / 6) / 200_000)
    assert abs(fraction - 1 / 6) < 5 * sigma


def test_domain_fraction_counts_every_sample_once(monkeypatch):
    # slices aligned to sample 0, on any number of lanes, count exactly the plain-loop hits
    samples = 5 * 2048 + 17
    x = counter_normals(3, 0, samples, 3)
    mu = x / np.linalg.norm(x, axis=1, keepdims=True)
    diag = (1.0 + math.sqrt(4 * 15 / 2.0) * mu @ gell_mann_basis(4).cartan_diagonals) / 4
    expected = np.all(np.diff(diag, axis=1) <= 0.0, axis=1).sum() / samples
    for cores in (1, 3):
        monkeypatch.setattr(_streams, "_cores", lambda: cores)
        assert moduli_domain_fraction(4, samples, seed=3) == expected


def test_domain_fraction_guards():
    with pytest.raises(DomainError):
        moduli_domain_fraction(3, 10, seed=0)
    with pytest.raises(DomainError):
        moduli_domain_fraction(1, 10_000, seed=0)


def test_isotropy_signature():
    assert isotropy_signature(qutrit_spectrum(-0.5)) == ((1, 1, 1), 6)
    assert isotropy_signature(qutrit_spectrum(-1.0)) == ((2, 1), 4)
    assert isotropy_signature(qutrit_spectrum(-1.0 / 3.0)) == ((1, 2), 4)
    assert isotropy_signature([1.366, -0.366]) == ((1, 1), 2)
    assert isotropy_signature([1.0, 1.0, 1.0, -2.0]) == ((3, 1), 6)


def test_spectrum_is_built_from_eigenvalues_in_any_order():
    fields = ("multiplicities", "flag_dims", "degenerate")
    for eigs in ([1.0, 1.0, -1.0], [5 / 3, -1 / 3, -1 / 3], [1.366, -0.366], [0.5, 0.3, 1.0, -0.8]):
        spec, shuffled = KernelSpectrum(eigs), KernelSpectrum(eigs[::-1])
        np.testing.assert_array_equal(shuffled.eigenvalues, np.sort(eigs)[::-1])
        assert shuffled.eigenvalues.tobytes() == spec.eigenvalues.tobytes()
        assert [getattr(shuffled, f) for f in fields] == [getattr(spec, f) for f in fields]
    with pytest.raises(ValueError):
        spec.eigenvalues[0] = 2.0
    # the derived fields are not constructor arguments, so they cannot contradict the eigenvalues
    with pytest.raises(TypeError):
        KernelSpectrum(eigenvalues=[1.0, 0.0], multiplicities=(2,), flag_dims=(), degenerate=True)


def test_spectrum_needs_two_or_more_finite_eigenvalues():
    for eigs in ([], [1.0], [math.nan, 1.0, 0.0], [math.inf, -math.inf], [[1.0, 0.0]]):
        with pytest.raises(ValidationError):
            KernelSpectrum(eigs)
        with pytest.raises(ValidationError):
            isotropy_signature(eigs)
    # raw candidates are still diagnosed: an inadmissible one reports its residuals
    assert verify_master([math.nan, 1.0, 0.0])[0] != 0.0
    assert verify_master([2.0, -1.0]) == (0.0, 3.0)


def test_flag_dims_are_partial_multiplicity_sums():
    spec = qutrit_spectrum(-0.5)
    assert spec.flag_dims == (1, 2)
    assert qutrit_spectrum(-1.0).flag_dims == (2,)


@pytest.mark.parametrize("n", [2, 3])
def test_assemble_kernel_properties(n):
    basis = gell_mann_basis(n)
    p = random_moduli(n, seed=5)
    u = haar_sample(n, seed=17)
    kernel = assemble_kernel(p, u.u, basis)
    delta = kernel.delta
    assert np.max(np.abs(delta - delta.conj().T)) < 1e-14
    assert np.trace(delta).real == pytest.approx(1.0, abs=1e-12)
    assert np.trace(delta @ delta).real == pytest.approx(float(n), abs=1e-12)


def test_assemble_kernel_covariant(basis3):
    p = qutrit_mu(-0.7)
    u = haar_sample(3, seed=3).u
    v = haar_sample(3, seed=4).u
    moved = assemble_kernel(p, v @ u, basis3).delta
    np.testing.assert_allclose(moved, v @ assemble_kernel(p, u, basis3).delta @ v.conj().T, atol=1e-13)


def test_assemble_kernel_rejects_non_unitary(basis3):
    with pytest.raises(ValidationError):
        assemble_kernel(qutrit_mu(-0.5), np.ones((3, 3)), basis3)


def test_kernel_matrix_keeps_a_read_only_copy(basis3):
    # a later write to the caller's array cannot make a checked kernel non-Hermitian
    d = assemble_kernel(qutrit_mu(-0.5), haar_sample(3, seed=3).u, basis3).delta.copy()
    k = KernelMatrix(3, d)
    d[0, 0] = 5.0
    assert k.delta[0, 0] != 5.0 and not k.delta.flags.writeable
    with pytest.raises(ValueError):
        k.delta[0, 0] = 5.0


def test_moduli_point_validation():
    with pytest.raises(ValidationError):
        moduli_point(3, [1.0])  # wrong length
    with pytest.raises(ValidationError):
        moduli_point(3, [1.0, 1.0])  # not unit norm
    with pytest.raises(DomainError):
        moduli_point(1, [])
