"""Bloch parameterization, positivity constraints, and state serialization."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swphase import (
    DensityState,
    DomainError,
    InvalidStateError,
    ValidationError,
    bloch_from_rho,
    bloch_scale,
    gell_mann_basis,
    qutrit_bloch_constraints,
    rho_from_bloch,
    state_as_dict,
    state_from_dict,
    symmetric_structure_constants,
)

D3 = symmetric_structure_constants(gell_mann_basis(3))


def test_qubit_north_pole():
    state = rho_from_bloch(2, [0.0, 0.0, 1.0])
    np.testing.assert_allclose(state.rho, np.diag([1.0, 0.0]), atol=1e-15)


def test_maximally_mixed():
    state = rho_from_bloch(3, np.zeros(8))
    np.testing.assert_allclose(state.rho, np.eye(3) / 3.0, atol=0)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_scale_matches_pure_state_norm(n):
    # A rank-one projector sits on the outer sphere |xi| = 1.
    rho = np.zeros((n, n), dtype=complex)
    rho[0, 0] = 1.0
    xi = bloch_from_rho(rho)
    assert np.linalg.norm(xi) == pytest.approx(1.0, abs=1e-12)
    assert bloch_scale(n) == pytest.approx(np.sqrt(n * (n - 1) / 2.0))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.sampled_from([2, 3, 4]))
def test_bloch_roundtrip_inside_ball(seed, n):
    # Radius 1/(N-1) is the inscribed ball: valid for every direction.
    rng = np.random.default_rng(seed)
    v = rng.normal(size=n * n - 1)
    xi = v / np.linalg.norm(v) / (n - 1) * rng.uniform(0.0, 1.0)
    state = rho_from_bloch(n, xi)
    assert abs(np.trace(state.rho) - 1.0) < 1e-14
    assert np.min(np.linalg.eigvalsh(state.rho)) > -1e-14
    np.testing.assert_allclose(bloch_from_rho(state.rho), xi, atol=1e-12)


def test_positivity_rejection_reports_eigenvalue():
    xi = np.zeros(8)
    xi[7] = 1.0  # the lambda_8 direction leaves the state space at radius 1/2
    with pytest.raises(InvalidStateError) as err:
        rho_from_bloch(3, xi)
    assert err.value.min_eigenvalue == pytest.approx(-1.0 / 3.0, abs=1e-12)


def test_bloch_from_rho_validates():
    with pytest.raises(ValidationError):
        bloch_from_rho(np.array([[1.0, 1.0], [0.0, 0.0]]))  # not Hermitian
    with pytest.raises(ValidationError):
        bloch_from_rho(np.eye(2))  # trace 2
    with pytest.raises(InvalidStateError):
        bloch_from_rho(np.diag([1.5, -0.5]))


def test_state_is_built_from_its_bloch_vector():
    xi = [0.1, -0.2, 0.3]
    state = DensityState(2, xi)
    assert rho_from_bloch(2, xi).rho.tobytes() == state.rho.tobytes()
    assert state.bloch.tolist() == xi and not state.bloch.flags.writeable and not state.rho.flags.writeable
    # rho is derived, so a matrix that contradicts the vector cannot be supplied
    with pytest.raises(TypeError):
        DensityState(dim_n=2, rho=-np.eye(2), bloch=np.zeros(3))
    with pytest.raises(DomainError, match="must be an integer"):
        rho_from_bloch(2.0, xi)


def test_wrong_length_rejected():
    with pytest.raises(ValidationError):
        rho_from_bloch(3, np.zeros(3))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), radius=st.floats(0.0, 1.2))
def test_qutrit_constraints_match_eigenvalue_oracle(seed, radius):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=8)
    xi = radius * v / np.linalg.norm(v)
    c1, c2, ok = qutrit_bloch_constraints(xi, D3)
    rho = (np.eye(3) + np.sqrt(3.0) * np.einsum("a,aij->ij", xi, gell_mann_basis(3).generators)) / 3.0
    psd = np.min(np.linalg.eigvalsh(rho)) >= -1e-9
    if abs(np.min(np.linalg.eigvalsh(rho))) > 1e-9:  # skip knife-edge boundary cases
        assert ok == psd
    assert c1 == pytest.approx(float(xi @ xi), abs=1e-12)


@pytest.mark.parametrize("seed", range(8))
def test_qutrit_c2_is_determinant_invariant(seed):
    rng = np.random.default_rng(seed)
    v = rng.normal(size=8)
    xi = v / np.linalg.norm(v) * rng.uniform(0.0, 0.5)
    state = rho_from_bloch(3, xi)
    _, c2, ok = qutrit_bloch_constraints(xi, D3)
    assert ok
    assert c2 == pytest.approx(1.0 / 3.0 - 9.0 * np.linalg.det(state.rho).real, abs=1e-12)


def test_pure_qutrit_on_constraint_boundary():
    c1, c2, ok = qutrit_bloch_constraints(bloch_from_rho(np.diag([1.0, 0.0, 0.0])), D3)
    assert ok
    assert c1 == pytest.approx(1.0, abs=1e-12)
    assert c2 == pytest.approx(1.0 / 3.0, abs=1e-12)


def test_serialization_roundtrip():
    state = rho_from_bloch(3, np.full(8, 0.1))
    payload = state_as_dict(state)
    assert payload["n"] == 3
    assert len(payload["bloch"]) == 8
    back = state_from_dict(payload)
    np.testing.assert_allclose(back.rho, state.rho, atol=1e-15)


def test_state_from_dict_validates():
    with pytest.raises(ValidationError):
        state_from_dict({"n": 3})
    with pytest.raises(ValidationError):
        state_from_dict({"n": 2, "bloch": [0.0] * 8})
    with pytest.raises(ValidationError, match="must be an integer"):
        state_from_dict({"n": 2.5, "bloch": [0.0] * 3})  # int() would truncate it to a qubit
