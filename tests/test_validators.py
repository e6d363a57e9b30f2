"""Every input validator rejects a NaN or an infinity wherever it sits in the input.

Each case builds a valid input, spoils one drawn entry with a non-finite
value and calls the validating entry point, which must raise
`ValidationError` or `DomainError` before any Monte Carlo work.
"""
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from swphase import (
    DensityState,
    DomainError,
    EulerSU2,
    EulerSU3,
    GellMannBasis,
    KernelMatrix,
    ModuliPoint,
    PhasePoint,
    ValidationError,
    adjoint_matrix,
    adjoint_vector,
    assemble_kernel,
    bloch_from_rho,
    check_covariance,
    check_norm,
    check_standardisation,
    check_traciality,
    expand_in_basis,
    gell_mann_basis,
    haar_sample,
    moduli_point,
    qutrit_mu,
    rho_from_bloch,
    seeded_hermitian,
    weingarten2_check,
    weingarten4_check,
    wigner_closed_form,
)
from swphase.cli import _parse_grid

MODULI = qutrit_mu(-0.5)
STATE = rho_from_bloch(3, np.full(8, 0.1))
POINT = haar_sample(3, 4)

# name -> (valid input, call taking the spoiled input)
CASES = {
    "moduli_point": ([0.6, 0.8], lambda mu: moduli_point(3, mu)),
    "ModuliPoint": ([0.6, 0.8], lambda mu: ModuliPoint(dim_n=3, mu=mu)),
    "rho_from_bloch": (np.full(8, 0.1), lambda xi: rho_from_bloch(3, xi)),
    "expand_in_basis": (seeded_hermitian(3, 1), lambda m: expand_in_basis(m, gell_mann_basis(3))),
    "bloch_from_rho": (STATE.rho, bloch_from_rho),
    "PhasePoint": (POINT.u, lambda u: PhasePoint(dim_n=3, u=u)),
    "assemble_kernel": (POINT.u, lambda u: assemble_kernel(MODULI, u, gell_mann_basis(3))),
    "check_standardisation": (seeded_hermitian(3, 1), lambda a: check_standardisation(a, MODULI, 1000, 1)),
    "check_traciality A": (seeded_hermitian(3, 1), lambda a: check_traciality(a, np.eye(3), MODULI, 1000, 1)),
    "check_traciality B": (seeded_hermitian(3, 1), lambda b: check_traciality(np.eye(3), b, MODULI, 1000, 1)),
    "check_covariance g": (haar_sample(3, 5).u, lambda g: check_covariance(STATE, POINT, MODULI, g)),
    "_parse_grid": ([0.0, 1.0], lambda ends: _parse_grid([f"beta={ends[0]!r}:{ends[1]!r}:3"], ("alpha", "beta"))),
    "weingarten2 indices": ([1, 2, 2, 1], lambda idx: weingarten2_check(3, tuple(idx), 10_000, 1)),
    "weingarten4 indices": ([1] * 8, lambda idx: weingarten4_check(3, tuple(idx), 10_000, 1)),
    "EulerSU3": ([0.5] * 8, lambda angles: EulerSU3(*angles)),
    "EulerSU2": ([0.5, 1.0], lambda angles: EulerSU2(*angles)),
    "KernelMatrix": (assemble_kernel(MODULI, POINT.u, gell_mann_basis(3)).delta, lambda d: KernelMatrix(dim_n=3, delta=d)),
    "DensityState": (STATE.bloch, lambda xi: DensityState(dim_n=3, bloch=xi)),
    "adjoint_matrix": (POINT.u, lambda u: adjoint_matrix(u, gell_mann_basis(3))),
}


@pytest.mark.parametrize("case", list(CASES))
@settings(max_examples=20, deadline=None)
@given(bad=st.sampled_from([math.nan, math.inf, -math.inf]), position=st.integers(0, 63), imaginary=st.booleans())
def test_validators_reject_non_finite_entries(case, bad, position, imaginary):
    valid, call = CASES[case]
    spoiled = np.array(valid, dtype=complex if np.iscomplexobj(valid) else float)
    part = spoiled.imag if imaginary and np.iscomplexobj(spoiled) else spoiled.real
    part.flat[position % spoiled.size] = bad
    if spoiled.dtype == float:
        spoiled = spoiled.tolist()  # as the callers pass plain lists and tuples
    with pytest.raises((ValidationError, DomainError)):
        call(spoiled)


@pytest.mark.parametrize("case", list(CASES))
def test_validator_cases_accept_their_valid_input(case):
    # so that each rejection above is caused by the spoiled entry alone
    valid, call = CASES[case]
    call(valid)


@pytest.mark.parametrize(
    "call",
    [
        lambda: check_standardisation(np.eye(3), moduli_point(2, [1.0]), 1000, 1),
        lambda: check_traciality(np.eye(2), np.eye(2), MODULI, 1000, 1),
        lambda: assemble_kernel(MODULI, np.eye(3), gell_mann_basis(2)),
        lambda: check_norm(rho_from_bloch(2, np.zeros(3)), MODULI, 1000, 1),
        lambda: check_covariance(rho_from_bloch(2, np.zeros(3)), POINT, moduli_point(2, [1.0]), np.eye(2)),
        lambda: adjoint_vector(haar_sample(2, 4), 3, gell_mann_basis(3)),
        lambda: wigner_closed_form(np.zeros(3), moduli_point(2, [1.0]), POINT, gell_mann_basis(3)),
        lambda: adjoint_matrix(np.eye(2), gell_mann_basis(3)),
    ],
    ids=[
        "standardisation", "traciality", "assemble_kernel", "norm", "covariance", "adjoint_vector", "closed_form",
        "adjoint_matrix",
    ],
)
def test_moduli_of_another_dimension_rejected(call):
    # the owner of each pair compares the dimensions before numpy multiplies mismatched arrays:
    # kernel_diagonal for moduli against a basis, PhasePoint and _unitary for a matrix
    with pytest.raises(ValidationError):
        call()


@pytest.mark.parametrize(
    "call",
    [
        lambda label: gell_mann_basis(3).generator(label),
        lambda label: adjoint_vector(haar_sample(3, 4), label, gell_mann_basis(3)),
    ],
    ids=["generator", "adjoint_vector"],
)
def test_labels_must_be_integers(call):
    # a float label is a DomainError, not numpy's IndexError; a numpy integer is a label like any other
    for label in (2.5, 3.0):
        with pytest.raises(DomainError, match="must be an integer"):
            call(label)
    assert call(np.int64(3)).shape in {(3, 3), (8,)}


@pytest.mark.parametrize(
    "call",
    [
        lambda n: rho_from_bloch(n, np.zeros(3)),
        lambda n: DensityState(dim_n=n, bloch=np.zeros(3)),
        lambda n: KernelMatrix(n, np.eye(2)),
        GellMannBasis,
    ],
    ids=["rho_from_bloch", "DensityState", "KernelMatrix", "GellMannBasis"],
)
def test_records_take_n_as_an_integer(call):
    # each record checks its own N, so no path stores 2.0 or reads "2" as a shape
    for n in (2.0, 2.5, "2", 1):
        with pytest.raises(DomainError):
            call(n)
    assert call(np.int64(2)).dim_n == 2


def test_basis_refuses_an_n_too_large_before_building_an_array():
    # 16 (N**2 - 1) N**2 bytes overflow np.intp at N = 10**6: refused by the arithmetic, not by numpy
    with pytest.raises(DomainError, match="exceeds np.intp"):
        GellMannBasis(10**6)
