"""A dense reference for the Monte Carlo numbers of the golden corpus, sample for sample.

Each `verify` and `reconstruct` run of the corpus is recomputed here from the
same normals (`counter_normals`) by textbook constructions alone: Haar samples
by LAPACK QR, the R-diagonal phase fix of Mezzadri (2007) and a division of the
first column by det Q; the generalised Gell-Mann matrices from their
definition; kernels as dense `U P U^dag`.  The moments of `verify` read only
|U_11|, which neither det Q nor the other columns change, so their reference
takes the QR of the first column alone.  The run's output, and the committed
corpus file, must agree with the reference at 1e-12 relative, so a regenerated
corpus is checked by code other than the code that wrote it.
"""
import json
import math

import numpy as np
import pytest

from swphase._streams import counter_normals
from swphase.cli import main
from test_golden import GOLDEN, RUNS, _file

REL = 1e-12


def gell_mann(n: int) -> np.ndarray:
    """For each level s = 1 .. N-1 (from 0): the symmetric and antisymmetric matrices coupling each level k < s to s,
    then the diagonal sqrt(2 / (s (s + 1))) diag(1, ..., 1, -s, 0, ..., 0); so tr(g_a g_b) = 2 delta_ab."""
    gens = []
    for s in range(1, n):
        for k in range(s):
            sym, anti = np.zeros((n, n), complex), np.zeros((n, n), complex)
            sym[k, s] = sym[s, k] = 1.0
            anti[k, s], anti[s, k] = -1.0j, 1.0j
            gens += [sym, anti]
        gens.append(np.diag(np.r_[np.ones(s), -s, np.zeros(n - s - 1)] * math.sqrt(2.0 / (s * (s + 1)))))
    return np.array(gens, dtype=complex)


def state(n: int, bloch) -> np.ndarray:
    """rho = (I + sqrt(N (N - 1) / 2) xi . g) / N."""
    return (np.eye(n) + math.sqrt(n * (n - 1) / 2.0) * np.einsum("a,aij->ij", bloch, gell_mann(n))) / n


def kernel_spectrum(n: int, mu) -> np.ndarray:
    """The diagonal of P = (I + sqrt(N (N^2 - 1) / 2) sum_s mu_s H_s) / N, H_s the diagonal Gell-Mann matrices."""
    cartan = [np.diagonal(g).real for g in gell_mann(n) if not np.any(g - np.diag(np.diagonal(g)))]
    return (1.0 + math.sqrt(n * (n * n - 1) / 2.0) * np.asarray(mu) @ cartan) / n


def qutrit_mu(nu: float) -> np.ndarray:
    mu = np.array([math.sqrt(3.0) / 4.0 * math.sqrt((1.0 + nu) * (5.0 - 3.0 * nu)), (1.0 - 3.0 * nu) / 4.0])
    return mu / np.linalg.norm(mu)


def hermitian(n: int, seed: int) -> np.ndarray:
    z = counter_normals(seed, 0, 1, 2 * n * n)[0]
    g = (z[: n * n] + 1j * z[n * n :]).reshape(n, n)
    return (g + g.conj().T) / 2.0


def haar(n: int, seed: int, count: int, columns: int | None = None) -> np.ndarray:
    """Haar samples on SU(N), or the first `columns` columns of Q without the det Q division."""
    z = counter_normals(seed, 0, count, 2 * n * n)
    q, r = np.linalg.qr((z[:, : n * n] + 1j * z[:, n * n :]).reshape(count, n, n)[:, :, :columns])
    d = np.diagonal(r, axis1=1, axis2=2)
    q = q * (d / np.abs(d))[:, None, :]
    if columns is None:
        q[:, :, 0] /= np.linalg.det(q)[:, None]
    return q


def kernels(n: int, p: np.ndarray, seed: int, count: int) -> np.ndarray:
    """U P U^dag for P = diag(p)."""
    u = haar(n, seed, count)
    return np.einsum("kij,j,klj->kil", u, p, u.conj())


def trace(a: np.ndarray, delta: np.ndarray) -> np.ndarray:
    return np.einsum("ij,kji->k", a, delta).real


def estimate(values: np.ndarray, target: float) -> tuple[float, float, float]:
    """(mc, target, sigma) of a Monte Carlo check: the mean of `values` and its standard error."""
    return float(values.mean()), target, float(values.std() / math.sqrt(len(values)))


def reconstruction(n: int, p: np.ndarray, rho: np.ndarray, seed: int, count: int) -> tuple[np.ndarray, float]:
    """rho_hat, the Hermitian part of N mean_k[tr(rho Delta_k) Delta_k], and the Frobenius norm of its standard errors."""
    delta = kernels(n, p, seed, count)
    terms = n * trace(rho, delta)[:, None, None] * delta
    mean = terms.mean(axis=0)
    error = math.sqrt(float((terms.real.var(axis=0) + terms.imag.var(axis=0)).sum()) / count)
    return (mean + mean.conj().T) / 2.0, error


def options(argv: list[str]) -> dict:
    """`--name value` and `--name=value` pairs of an argument list."""
    out, rest = {}, iter(argv[1:])
    for arg in rest:
        name, eq, value = arg.partition("=")
        out[name[2:]] = value if eq else next(rest)
    return out


def moduli(opts: dict, n: int) -> np.ndarray:
    if "nu" in opts:
        return qutrit_mu(float(opts["nu"]))
    return np.array([float(x) for x in opts["mu"].split(",")]) if "mu" in opts else np.array([1.0])


def verify_reference(opts: dict) -> dict:
    """check name -> (mc, target, sigma) of each Monte Carlo check of `verify`, drawn with its seed offset."""
    n, samples, seed = int(opts["n"]), int(opts["samples"]), int(opts["seed"])
    p = kernel_spectrum(n, moduli(opts, n))
    direction = counter_normals(seed + 11, 0, 1, n * n - 1)[0]
    rho = state(n, 0.8 / (n - 1) * direction / np.linalg.norm(direction))
    a, b = hermitian(n, seed + 102), hermitian(n, seed + 103)
    u11 = {s: haar(n, seed + s, samples, 1)[:, 0, 0] for s in (4, 5)}
    rho_hat, error = reconstruction(n, p, rho, seed + 7, samples)
    delta = kernels(n, p, seed + 3, samples)
    return {
        "norm": estimate(n * trace(rho, kernels(n, p, seed + 1, samples)), 1.0),
        "standardisation": estimate(n * trace(a, kernels(n, p, seed + 2, samples)), np.trace(a).real),
        "traciality": estimate(n * trace(a, delta) * trace(b, delta), np.trace(a @ b).real),
        "weingarten2": estimate(np.abs(u11[4]) ** 2, 1.0 / n),
        "weingarten4": estimate(np.abs(u11[5]) ** 4, 2.0 / (n * n - 1.0) - 2.0 / (n * (n * n - 1.0))),
        # the Frobenius error of the estimate, against 0, and its standard error
        "reconstruction": (float(np.linalg.norm(rho_hat - rho)), 0.0, error),
    }


@pytest.mark.parametrize("name", [name for name in RUNS if name.startswith("verify")])
def test_verify_checks_match_the_dense_reference(name, capsys):
    want = verify_reference(options(RUNS[name]))
    main(RUNS[name])
    # the checks printed now, then those committed in the corpus
    for payload in (json.loads(capsys.readouterr().out), json.loads((GOLDEN / _file(name)).read_text())):
        records = {r["check"]: r for r in payload["checks"]}
        for check, (mc, target, sigma) in want.items():
            got = tuple(records[check][key] for key in ("mc", "target", "sigma"))
            assert all(math.isclose(x, y, rel_tol=REL, abs_tol=1e-15 * (y == 0)) for x, y in zip(got, (mc, target, sigma))), (
                check, got, (mc, target, sigma))


def test_reconstruct_matches_the_dense_reference(capsys):
    opts = options(RUNS["reconstruct-json"])
    n = int(opts["n"])
    rho = state(n, np.array([float(x) for x in opts["state"].split(",")]))
    rho_hat, error = reconstruction(n, kernel_spectrum(n, moduli(opts, n)), rho, int(opts["seed"]), int(opts["samples"]))
    main(RUNS["reconstruct-json"])
    for payload in (json.loads(capsys.readouterr().out), json.loads((GOLDEN / "reconstruct-json.json").read_text())):
        got = np.array(payload["rho_hat_re"]) + 1j * np.array(payload["rho_hat_im"])
        assert np.max(np.abs(got - rho_hat)) <= REL * np.linalg.norm(rho_hat)
        assert math.isclose(payload["frobenius_error"], float(np.linalg.norm(rho_hat - rho)), rel_tol=REL)
        assert math.isclose(payload["frobenius_error_estimate"], error, rel_tol=REL)
