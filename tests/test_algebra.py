"""Generator basis construction and the symmetric structure tensor."""
import dataclasses

import numpy as np
import pytest

from swphase import (
    GellMannBasis,
    ValidationError,
    expand_in_basis,
    gell_mann_basis,
    symmetric_structure_constants,
)

SQ3 = np.sqrt(3.0)


def test_pauli_matrices():
    g = gell_mann_basis(2)
    np.testing.assert_array_equal(g.generator(1), [[0, 1], [1, 0]])
    np.testing.assert_array_equal(g.generator(2), [[0, -1j], [1j, 0]])
    np.testing.assert_array_equal(g.generator(3), [[1, 0], [0, -1]])
    assert g.cartan_indices == (3,)


def test_qutrit_generators_standard():
    g = gell_mann_basis(3)
    np.testing.assert_allclose(g.generator(1), [[0, 1, 0], [1, 0, 0], [0, 0, 0]])
    np.testing.assert_allclose(g.generator(2), [[0, -1j, 0], [1j, 0, 0], [0, 0, 0]])
    np.testing.assert_allclose(g.generator(3), np.diag([1.0, -1.0, 0.0]))
    np.testing.assert_allclose(g.generator(4), [[0, 0, 1], [0, 0, 0], [1, 0, 0]])
    np.testing.assert_allclose(g.generator(5), [[0, 0, -1j], [0, 0, 0], [1j, 0, 0]])
    np.testing.assert_allclose(g.generator(6), [[0, 0, 0], [0, 0, 1], [0, 1, 0]])
    np.testing.assert_allclose(g.generator(7), [[0, 0, 0], [0, 0, -1j], [0, 1j, 0]])
    np.testing.assert_allclose(g.generator(8), np.diag([1.0, 1.0, -2.0]) / SQ3)
    assert g.cartan_indices == (3, 8)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_basis_orthogonality(n):
    g = gell_mann_basis(n).generators
    gram = np.einsum("aij,bji->ab", g, g).real
    np.testing.assert_allclose(gram, 2.0 * np.eye(n * n - 1), atol=1e-13)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_basis_hermitian_traceless(n):
    g = gell_mann_basis(n).generators
    assert np.max(np.abs(g - g.conj().transpose(0, 2, 1))) == 0.0
    assert np.max(np.abs(np.trace(g, axis1=1, axis2=2))) < 1e-15


@pytest.mark.parametrize("n", [3, 4, 5])
def test_cartan_labels_are_squares_minus_one(n):
    g = gell_mann_basis(n)
    assert g.cartan_indices == tuple(s * s - 1 for s in range(2, n + 1))
    for row, label in zip(g.cartan_diagonals, g.cartan_indices):
        np.testing.assert_allclose(row, np.diag(g.generator(label)).real, atol=0)


@pytest.mark.parametrize("n", range(2, 61))
def test_cartan_diagonals_closed_form(n):
    # the diagonal of generator s**2 - 1 is sqrt(2/(s(s-1))) (1, ..., 1, -(s-1), 0, ..., 0), with s-1 ones;
    # compared by bits, which the earlier per-element build matched too
    expected = np.zeros((n - 1, n))
    for s in range(2, n + 1):
        expected[s - 2, : s - 1] = 1.0
        expected[s - 2, s - 1] = -(s - 1.0)
        expected[s - 2] *= np.sqrt(2.0 / (s * (s - 1)))
    np.testing.assert_array_equal(gell_mann_basis(n).cartan_diagonals.view(np.uint64), expected.view(np.uint64))


def _loop_generators(n):
    """The generator array as the earlier per-element loops built it: the reference for its bits."""
    mats = np.zeros((n * n - 1, n, n), dtype=complex)
    a = 0
    for s in range(2, n + 1):
        for k in range(1, s):
            mats[a, k - 1, s - 1] = 1.0
            mats[a, s - 1, k - 1] = 1.0
            mats[a + 1, k - 1, s - 1] = -1.0j
            mats[a + 1, s - 1, k - 1] = 1.0j
            a += 2
        scale = np.sqrt(2.0 / (s * (s - 1)))
        for i in range(s - 1):
            mats[a, i, i] = scale
        mats[a, s - 1, s - 1] = -scale * (s - 1)
        a += 1
    return mats


@pytest.mark.parametrize("n", range(2, 14))
def test_generators_bits_match_the_loop_construction(n):
    # by uint64 view, so -0.0 (the real part of -1j) and every last bit count
    np.testing.assert_array_equal(gell_mann_basis(n).generators.view(np.uint64), _loop_generators(n).view(np.uint64))


def test_basis_holds_only_n():
    # the Cartan-only callers never build the generator array; reading it once caches it
    g = GellMannBasis(dim_n=7)
    assert [f.name for f in dataclasses.fields(g)] == ["dim_n"]
    g.cartan_diagonals
    assert "generators" not in vars(g)
    assert g.generators is g.generators and gell_mann_basis(7) == g


def test_basis_arrays_read_only():
    g = gell_mann_basis(3)
    with pytest.raises(ValueError):
        g.generators[0, 0, 0] = 5.0


def test_structure_tensor_symmetry():
    d = symmetric_structure_constants(gell_mann_basis(3)).d
    for perm in [(1, 0, 2), (0, 2, 1), (2, 1, 0)]:
        np.testing.assert_allclose(d, d.transpose(perm), atol=1e-14)


def test_structure_tensor_known_values():
    d = symmetric_structure_constants(gell_mann_basis(3)).d
    assert d[0, 0, 7] == pytest.approx(1 / SQ3, abs=1e-14)
    assert d[0, 3, 5] == pytest.approx(0.5, abs=1e-14)
    assert d[7, 7, 7] == pytest.approx(-1 / SQ3, abs=1e-14)
    assert d[0, 0, 1] == pytest.approx(0.0, abs=1e-14)


@pytest.mark.parametrize("n", [2, 3, 4])
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_expand_roundtrip(n, seed):
    rng = np.random.default_rng(seed)
    z = rng.normal(size=(n, n)) + 1j * rng.normal(size=(n, n))
    m = (z + z.conj().T) / 2.0
    basis = gell_mann_basis(n)
    coeffs, trace_part = expand_in_basis(m, basis)
    rebuilt = trace_part * np.eye(n) + np.einsum("a,aij->ij", coeffs, basis.generators)
    np.testing.assert_allclose(rebuilt, m, atol=1e-13)
    assert trace_part == pytest.approx(np.trace(m).real / n)


def test_expand_rejects_non_hermitian(basis3):
    with pytest.raises(ValidationError):
        expand_in_basis(np.triu(np.ones((3, 3))), basis3)
    # non-finite entries pass the Hermitian tolerance test, so they need their own guard
    for bad in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValidationError, match="non-finite"):
            expand_in_basis([[bad, 0.0], [0.0, 0.0]], gell_mann_basis(2))


def test_basis_is_cached():
    assert gell_mann_basis(4) is gell_mann_basis(4)
