"""Every input validator rejects a NaN, an infinity or a non-number wherever it sits in the input, and a wrong shape.

Each case builds a valid input, spoils one drawn entry with a non-finite
value or with one that is not a number, and calls the validating entry
point, which must raise `ValidationError` or `DomainError` before any
Monte Carlo work; each case also has a wrong-shape input.  Single numbers
given as lists, an N that is not an integer of 2 or more and a number where
a record belongs are package errors too.  Every public function that takes
a record refuses a number or a record of another type there, and records of
different N, through one rule.  The records that hold arrays compare by
identity and keep read-only copies of them.
"""
import dataclasses
import inspect
import math
import typing

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from swphase import (
    DensityState,
    DomainError,
    EulerSU2,
    EulerSU3,
    GellMannBasis,
    KernelMatrix,
    KernelSpectrum,
    ModuliPoint,
    PhasePoint,
    SWPhaseError,
    SymmetricStructureTensor,
    ValidationError,
    adjoint_matrix,
    adjoint_vector,
    assemble_kernel,
    bloch_from_rho,
    bloch_scale,
    chart_wf,
    check_covariance,
    check_norm,
    check_standardisation,
    check_traciality,
    expand_in_basis,
    gell_mann_basis,
    haar_sample,
    isotropy_signature,
    kernel_chart,
    kernel_diagonal,
    moduli_point,
    nu_from_zeta,
    qutrit_bloch_constraints,
    qutrit_mu,
    qutrit_spectrum,
    rho_from_bloch,
    seeded_hermitian,
    state_as_dict,
    state_wf_sampler,
    verify_master,
    weingarten2_check,
    weingarten4_check,
    wigner_closed_form,
    wigner_value,
    zeta_from_nu,
)
import swphase
from swphase.cli import _parse_grid

MODULI = qutrit_mu(-0.5)
STATE = rho_from_bloch(3, np.full(8, 0.1))
POINT = haar_sample(3, 4)
QUBIT = moduli_point(2, [1.0])
QUBIT_CHART = kernel_chart(QUBIT)
D3 = SymmetricStructureTensor(3)

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
    "KernelSpectrum": ([0.9, 0.4, -0.3], KernelSpectrum),
    "isotropy_signature": ([0.9, 0.4, -0.3], isotropy_signature),
    "qutrit_bloch_constraints": (np.full(8, 0.1), lambda xi: qutrit_bloch_constraints(xi, D3)),
    "zeta_from_nu": (-0.5, zeta_from_nu),
    "nu_from_zeta": (0.5, nu_from_zeta),
    "chart_wf": ([0.5, 1.0], lambda ab: chart_wf(np.zeros(3), QUBIT, QUBIT_CHART, dict(alpha=ab[0], beta=ab[1]))),
}
#: Cases whose entries follow the integer rule, which raises `DomainError` on a non-integer.
INTEGER_CASES = {"weingarten2 indices", "weingarten4 indices"}


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
@settings(max_examples=10, deadline=None)
@given(bad=st.sampled_from(["x", 1j]), position=st.integers(0, 63))
def test_validators_reject_entries_that_are_not_numbers(case, bad, position):
    # a string anywhere, or a complex number in a real-valued input, is a package error, not numpy's
    # ValueError or TypeError
    valid, call = CASES[case]
    assume(bad == "x" or not np.iscomplexobj(valid))
    spoiled = np.array(valid, dtype=object)
    spoiled.flat[position % spoiled.size] = bad
    with pytest.raises(DomainError if case in INTEGER_CASES else ValidationError):
        call(spoiled.tolist())


#: A wrong-shape input for each case: another length, another matrix size, a vector for a single number, or
#: chart angles that do not broadcast together.
WRONG_SHAPES = {
    "moduli_point": [0.6, 0.8, 0.0],
    "ModuliPoint": [[0.6, 0.8]],
    "rho_from_bloch": np.full(3, 0.1),
    "expand_in_basis": np.eye(2),
    "bloch_from_rho": STATE.rho[:2],
    "PhasePoint": POINT.u[:, :2],
    "assemble_kernel": np.eye(2),
    "check_standardisation": seeded_hermitian(3, 1)[:2],
    "check_traciality A": seeded_hermitian(3, 1)[:, :2],
    "check_traciality B": np.eye(2),
    "check_covariance g": np.eye(2),
    "_parse_grid": [[0.0, 1.0], 1.0],
    "weingarten2 indices": [1, 2, 2],
    "weingarten4 indices": [1] * 7,
    "EulerSU3": [[0.5, 1.0], [0.5, 1.0, 1.5]] + [0.5] * 6,
    "EulerSU2": [[0.5, 1.0], [0.5, 1.0, 1.5]],
    "KernelMatrix": CASES["KernelMatrix"][0][:2, :2],
    "DensityState": STATE.bloch[:, None],
    "adjoint_matrix": np.eye(2),
    "KernelSpectrum": [[0.9, 0.4, -0.3]],
    "isotropy_signature": [[0.9, 0.4, -0.3]],
    "qutrit_bloch_constraints": np.full(3, 0.1),
    "zeta_from_nu": [-0.5, -0.5],
    "nu_from_zeta": [0.5, 0.5],
    "chart_wf": [[0.5, 1.0], [0.5, 1.0, 1.5]],
}


@pytest.mark.parametrize("case", list(CASES))
def test_validators_reject_a_wrong_shape(case):
    # the array rule checks the shape of every array input and of every single number; chart angles may take any
    # shapes that broadcast together, as the axes of an open mesh do
    with pytest.raises(SWPhaseError):
        CASES[case][1](WRONG_SHAPES[case])


@pytest.mark.parametrize(
    "call",
    [
        lambda: qutrit_spectrum([-0.5]),
        lambda: qutrit_mu([-0.5]),
        lambda: zeta_from_nu([-0.5]),
        lambda: nu_from_zeta([0.5]),
        lambda: verify_master(np.zeros((2, 3))),
    ],
    ids=["qutrit_spectrum", "qutrit_mu", "zeta_from_nu", "nu_from_zeta", "verify_master"],
)
def test_single_numbers_and_raw_spectra_keep_their_shapes(call):
    # a one-element list is not a number, and a raw spectrum candidate is a vector, even one kept for diagnosis
    with pytest.raises(ValidationError, match="must have shape"):
        call()


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
        lambda: wigner_value(1, 2),
        lambda: wigner_value(STATE, 2),
        lambda: state_as_dict(1),
        lambda: kernel_diagonal(1, gell_mann_basis(3)),
        lambda: kernel_diagonal(MODULI, 1),
        lambda: check_norm(1, MODULI, 10000, 1),
        lambda: state_wf_sampler(1, MODULI),
        lambda: check_covariance(1, POINT, MODULI, np.eye(3)),
        lambda: check_covariance(STATE, 2, MODULI, np.eye(3)),
    ],
    ids=[
        "wigner_value", "wigner_value kernel", "state_as_dict", "kernel_diagonal moduli", "kernel_diagonal basis",
        "check_norm", "state_wf_sampler", "check_covariance state", "check_covariance point",
    ],
)
def test_records_must_be_records(call):
    # a number where a record belongs is a package error, not an AttributeError on a missing field;
    # kernel_diagonal is the gate of every kernel-side Monte Carlo routine
    with pytest.raises(ValidationError, match="need a"):
        call()


B3 = gell_mann_basis(3)
E3, E2 = EulerSU3(*[0.5] * 8), EulerSU2(0.5, 1.0)
# public function -> valid arguments, at N=3 but for the qubit chart's
RECORD_ARGS = {
    "symmetric_structure_constants": (B3,),
    "expand_in_basis": (seeded_hermitian(3, 1), B3),
    "qutrit_bloch_constraints": (np.full(8, 0.1), D3),
    "state_as_dict": (STATE,),
    "spectrum_from_moduli": (MODULI, B3),
    "moduli_canonicalize": (MODULI, B3),
    "assemble_kernel": (MODULI, POINT.u, B3),
    "kernel_diagonal": (MODULI, B3),
    "su3_from_euler": (E3, B3),
    "su2_coset": (E2,),
    "adjoint_vector": (POINT, 3, B3),
    "adjoint_matrix": (POINT.u, B3),
    "qubit_frame": (E2,),
    "n3_closed_form": (E3,),
    "n8_closed_form": (E3,),
    "wigner_value": (STATE, assemble_kernel(MODULI, POINT.u, B3)),
    "wigner_closed_form": (STATE.bloch, MODULI, POINT, B3),
    "qubit_wf": (np.zeros(3), E2),
    "qutrit_wf": (STATE.bloch, -0.5, E3, B3),
    "kernel_chart": (MODULI,),
    "chart_wf": (STATE, MODULI, kernel_chart(MODULI), {}),
    "reconstruct_state": (lambda u: np.zeros(len(u)), 3, MODULI, 1000, 1),
    "state_wf_sampler": (STATE, MODULI),
    "check_standardisation": (np.eye(3), MODULI, 1000, 1),
    "check_traciality": (np.eye(3), np.eye(3), MODULI, 1000, 1),
    "check_covariance": (STATE, POINT, MODULI, np.eye(3)),
    "check_norm": (STATE, MODULI, 1000, 1),
}
# a record of each type that can hold either N, at N=2
AT_N2 = {
    ModuliPoint: QUBIT,
    GellMannBasis: gell_mann_basis(2),
    DensityState: rho_from_bloch(2, np.zeros(3)),
    KernelMatrix: assemble_kernel(QUBIT, haar_sample(2, 4).u, gell_mann_basis(2)),
    PhasePoint: haar_sample(2, 4),
}


def _record_slots(fn) -> dict[int, type]:
    """Position -> type of each parameter of `fn` annotated with one swphase record type alone."""
    hints = typing.get_type_hints(fn)
    return {
        i: hints[name] for i, name in enumerate(inspect.signature(fn).parameters)
        if isinstance(hints.get(name), type) and hints[name].__module__.startswith("swphase.")
    }


def test_every_public_function_that_takes_a_record_has_a_row():
    # so that a new entry with a record parameter joins the table below
    public = [getattr(swphase, name) for name in swphase.__all__]
    takers = {fn.__name__ for fn in public if callable(fn) and not isinstance(fn, type) and _record_slots(fn)}
    assert takers == set(RECORD_ARGS)


@pytest.mark.parametrize("name", list(RECORD_ARGS))
def test_record_slots_follow_the_record_rule(name):
    # the number 1 or a record of another type in a record slot is "need a ...", and an N=2 record against the
    # N=3 records of the other slots is "dimension does not match": never AttributeError, numpy's error or a value
    fn, args = getattr(swphase, name), RECORD_ARGS[name]
    fn(*args)
    slots = _record_slots(fn)
    for i, kind in slots.items():
        for wrong in (1, E3 if kind is EulerSU2 else E2):
            with pytest.raises(ValidationError, match="need a"):
                fn(*args[:i], wrong, *args[i + 1 :])
    carried = [i for i in slots if hasattr(args[i], "dim_n")]
    for i in carried if len(carried) > 1 else ():
        if type(args[i]) in AT_N2:
            with pytest.raises(ValidationError, match="dimension does not match"):
                fn(*args[:i], AT_N2[type(args[i])], *args[i + 1 :])


@pytest.mark.parametrize(
    "call",
    [
        lambda: chart_wf(rho_from_bloch(2, np.zeros(3)), MODULI, kernel_chart(MODULI), {}),
        lambda: chart_wf(np.zeros(3), QUBIT, kernel_chart(MODULI), {}),
        lambda: chart_wf(STATE, MODULI, QUBIT_CHART, {}),
        lambda: chart_wf(STATE, -0.5, QUBIT_CHART, {}),
        lambda: chart_wf(np.zeros(3), QUBIT, kernel_chart(qutrit_mu(-1.0 / 3.0)), {}),
    ],
    ids=["state", "standard chart", "qubit chart", "qubit chart nu", "adapted chart"],
)
def test_chart_wf_refuses_a_state_or_chart_of_another_n(call):
    # a chart builds the Euler record of its angles, whose N the record rule compares with the state's and the kernel's
    with pytest.raises(ValidationError, match="dimension does not match"):
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


@pytest.mark.parametrize(
    "call",
    [
        lambda n: weingarten2_check(n, (1, 2, 2, 1), 10_000, 1),
        lambda n: weingarten4_check(n, (1,) * 8, 10_000, 1),
        bloch_scale,
    ],
    ids=["weingarten2_check", "weingarten4_check", "bloch_scale"],
)
def test_functions_take_n_as_an_integer(call):
    # N goes through the integer rule before any lane buffer is sized or any factor is formed
    for n in (2.0, 2.5, "2", 1):
        with pytest.raises(DomainError):
            call(n)
    call(np.int64(2))


def test_basis_refuses_an_n_too_large_before_building_an_array():
    # 16 (N**2 - 1) N**2 bytes overflow np.intp at N = 10**6: refused by the arithmetic, not by numpy
    with pytest.raises(DomainError, match="exceeds np.intp"):
        GellMannBasis(10**6)


@pytest.mark.parametrize("angles", [{"gamma": 0.1}, {"alpha": 0.1, "phi": 0.2}], ids=["gamma", "phi"])
def test_chart_wf_refuses_an_angle_its_chart_lacks(angles):
    # the dataclass would raise TypeError on gamma, and the standard chart's EulerSU3 would take phi silently
    chart, kernel = (QUBIT_CHART, QUBIT) if "gamma" in angles else (kernel_chart(MODULI), MODULI)
    with pytest.raises(ValidationError, match=f"{chart.name} chart has no angle"):
        chart_wf(np.zeros(kernel.dim_n**2 - 1), kernel, chart, angles)


def test_structure_tensor_is_built_from_n():
    # d is derived from N, so it cannot be passed in wrong; N itself follows the integer rule
    assert SymmetricStructureTensor(3).d.shape == (8, 8, 8)
    with pytest.raises(TypeError):
        SymmetricStructureTensor(3, np.zeros(1))
    for n in (1, 2.0, "3"):
        with pytest.raises(DomainError):
            SymmetricStructureTensor(n)


#: Array records: name -> (a new writable input array or None, the record built from it).
AXIS = np.linspace(0.0, 1.0, 4)
RECORDS = {
    "ModuliPoint": (lambda: np.array([0.6, 0.8]), lambda mu: ModuliPoint(3, mu)),
    "KernelSpectrum": (lambda: np.array([0.9, 0.4, -0.3]), KernelSpectrum),
    "KernelMatrix": (lambda: np.array(CASES["KernelMatrix"][0]), lambda delta: KernelMatrix(3, delta)),
    "DensityState": (lambda: np.full(8, 0.1), lambda xi: DensityState(3, xi)),
    "PhasePoint": (lambda: np.array(POINT.u), lambda u: PhasePoint(3, u)),
    "EulerSU3": (lambda: AXIS[:, None].copy(), lambda axis: EulerSU3(alpha=axis, beta=AXIS, theta=0.5)),
    "EulerSU2": (lambda: AXIS.copy(), lambda axis: EulerSU2(alpha=axis, beta=1.0)),
    "SymmetricStructureTensor": (lambda: None, lambda _: SymmetricStructureTensor(3)),
}


@pytest.mark.parametrize("name", list(RECORDS))
def test_array_records_compare_by_identity_and_hold_read_only_copies(name):
    make, build = RECORDS[name]
    given_array = make()
    a, b = build(given_array), build(make())
    assert a == a and not a == b and a != b  # the generated __eq__ would compare arrays and raise
    assert isinstance(hash(a), int)
    arrays = {f.name: getattr(a, f.name) for f in dataclasses.fields(a) if isinstance(getattr(a, f.name), np.ndarray)}
    assert arrays and not any(value.flags.writeable for value in arrays.values())
    before = {field: value.copy() for field, value in arrays.items()}
    if given_array is not None:
        given_array *= -1.0
    for field, value in arrays.items():
        assert np.array_equal(getattr(a, field), before[field]), field
