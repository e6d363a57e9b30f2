"""The paper's classification of kernel families as deterministic identities, N = 2 ... 6.

Permuting the diagonal of `P(mu)` by sigma in S_N moves a kernel along one
orbit of phase space: with `Pi_sigma` the permutation matrix phase-fixed into
SU(N) and `mu_sigma` the moduli vector of the permuted diagonal,
`Delta_{mu_sigma}(U) = Delta_mu(U Pi_sigma)` for every U, so the two kernels
give the same Wigner functions up to a relabelling of phase space.  Kernels
whose diagonals are not permutations of each other differ in a power sum
`tr P^k`, so the moduli sphere modulo reordering classifies the families, and
`moduli_canonicalize` picks the orbit point whose diagonal descends.

Diagonals and moduli vectors are computed here from the Gell-Mann generators
themselves, not by `kernel_diagonal`, so that a wrong diagonal in the package
cannot agree with itself.
"""
import itertools
import math

import numpy as np
import pytest

from swphase import ModuliPoint, assemble_kernel, gell_mann_basis, haar_sample, moduli_canonicalize

DIMS = [2, 3, 4, 5, 6]


def _kappa(n: int) -> float:
    return math.sqrt(n * (n * n - 1) / 2.0)


def _moduli(n: int, seed: int) -> ModuliPoint:
    """A fixed moduli point: a seeded Gaussian direction on the unit sphere of dimension N-2."""
    x = np.random.default_rng(seed).standard_normal(n - 1)
    return ModuliPoint(n, x / np.linalg.norm(x))


def _diagonal(p: ModuliPoint) -> np.ndarray:
    """The diagonal of `P(mu) = (I + kappa sum_s mu_s g_{s**2-1}) / N`, built from the generator matrices."""
    basis = gell_mann_basis(p.dim_n)
    cartan = sum(c * basis.generator(label) for c, label in zip(p.mu, basis.cartan_indices))
    return np.diag(np.eye(p.dim_n) + _kappa(p.dim_n) * cartan).real / p.dim_n


def _moduli_of(diag: np.ndarray) -> ModuliPoint:
    """The moduli point whose `P` has the diagonal `diag`: `mu_s = tr(P g_{s**2-1}) N / (2 kappa)`."""
    n = len(diag)
    basis = gell_mann_basis(n)
    traces = [np.trace(np.diag(diag) @ basis.generator(label)).real for label in basis.cartan_indices]
    return ModuliPoint(n, np.array(traces) * n / (2.0 * _kappa(n)))


def _special_permutation(sigma: tuple) -> np.ndarray:
    """The permutation matrix with ones at `(sigma[i], i)`, times `e^{i pi/N}` when sigma is odd: its determinant is 1."""
    n = len(sigma)
    pi = np.zeros((n, n), dtype=complex)
    pi[list(sigma), range(n)] = 1.0
    return pi * (np.exp(1j * math.pi / n) if np.linalg.det(pi.real) < 0 else 1.0)


@pytest.mark.parametrize("n", DIMS)
def test_permuted_moduli_move_the_kernel_along_its_orbit(n):
    # Delta_{mu_sigma}(U) = Delta_mu(U Pi_sigma) for all N! permutations, at two Haar points
    basis = gell_mann_basis(n)
    p = _moduli(n, 100 + n)
    diag = _diagonal(p)
    points = [haar_sample(n, seed).u for seed in (1, 2)]
    worst = 0.0
    for sigma in itertools.permutations(range(n)):
        pi = _special_permutation(sigma)
        assert abs(np.linalg.det(pi) - 1.0) < 1e-12
        moved = _moduli_of(np.diag(pi @ np.diag(diag) @ pi.conj().T).real)
        for u in points:
            lhs = assemble_kernel(moved, u, basis).delta
            rhs = assemble_kernel(p, u @ pi, basis).delta
            worst = max(worst, float(np.max(np.abs(lhs - rhs))))
    assert worst < 1e-12, worst


@pytest.mark.parametrize("n", DIMS)
def test_canonical_point_is_the_descending_point_of_the_orbit(n):
    # moduli_canonicalize returns the moduli vector of the diagonal permuted by the returned order, that diagonal
    # descends, and every power sum tr P^k, k = 1 .. N, is the same along the orbit
    basis = gell_mann_basis(n)
    for seed in range(5):
        p = _moduli(n, 10 * n + seed)
        canonical, order = moduli_canonicalize(p, basis)
        diag, landed = _diagonal(p), _diagonal(canonical)
        assert sorted(order) == list(range(n))
        np.testing.assert_allclose(landed, diag[order], rtol=0.0, atol=1e-12)
        assert np.all(np.diff(landed) <= 1e-12)
        for k in range(1, n + 1):
            assert np.sum(landed**k) == pytest.approx(np.sum(diag**k), rel=1e-12, abs=1e-12)
        assert moduli_canonicalize(canonical, basis)[1] == list(range(n))  # already canonical: the identity order
