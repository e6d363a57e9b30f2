"""Mutation matrix of `swphase verify`: every postulate check can fail.

Rows are deliberate faults in one piece of the pipeline, columns are
`(N, seed)` configurations of `verify --samples 20000`.  Each row lists, for
the configurations it covers, exactly the checks that fail there, each with
|z| >= 4 (an algebraic check that fails reads z = inf); a cell whose |z|
stays below 4 is not listed, so no expected red rests on a 3-sigma false
alarm.  Each fault is installed where the package reads it at call time.
The unmutated pipeline passes every configuration, and together the rows
turn all eight checks red.
"""
import json

import numpy as np
import pytest

from swphase import _streams, group, kernel, wigner
from swphase.cli import main

CHECKS = {
    "covariance", "norm", "standardisation", "traciality", "weingarten2", "weingarten4", "moduli_fraction",
    "reconstruction",
}
#: (N, seed) -> the kernel family member verified there
CONFIGS = {(2, 0): [], (3, 0): ["--nu=-0.5"], (4, 7): ["--mu=0.6,0,0.8"]}


def scaled_purity(monkeypatch):
    # the traceless part of P scaled by 1.25 keeps tr(Delta) = 1 but breaks tr(Delta^2) = N
    original = wigner.kernel_diagonal
    monkeypatch.setattr(
        wigner, "kernel_diagonal", lambda p, basis: 1 / p.dim_n + 1.25 * (original(p, basis) - 1 / p.dim_n)
    )


def near_identity_sampler(monkeypatch):
    # every sample replaced by the unitary part of (I + U)/2, which crowds the samples towards the identity; the
    # fault sits in the slice drawer of haar_batch and of every Monte Carlo average, and it draws whole samples
    # even where the average asks for a prefix of their columns
    original = group._haar_slice

    def haar_slice(n, seed, start, q, prefix=None):
        original(n, seed, start, q)
        w, _, vh = np.linalg.svd((np.eye(n) + q) / 2.0)
        q[...] = w @ vh

    monkeypatch.setattr(group, "_haar_slice", haar_slice)


def transposed_kernel(monkeypatch):
    # U^dag P U has the right spectrum at every point but moves the wrong way under the group
    original = wigner.assemble_kernel
    monkeypatch.setattr(wigner, "assemble_kernel", lambda p, u, basis: original(p, np.asarray(u).conj().T, basis))


def cube_moduli(monkeypatch):
    # moduli directions drawn from the cube [-1/2, 1/2)^(N-1) instead of a Gaussian, so they are not uniform on the
    # sphere; N = 2 has no sphere to sample and N = 3 reads only z = 3.4 at seed 0, so the row lists N = 4
    def counter_normals(seed, start, count, width, *, out=None):
        u = _streams.counter_uniforms(seed, start, count, width, out=out)
        return np.subtract(u, 0.5, out=u)

    monkeypatch.setattr(kernel, "counter_normals", counter_normals)


#: the checks that a sampler crowded towards the identity turns red at every N
CROWDED = {"norm", "traciality", "weingarten2", "weingarten4", "reconstruction"}
#: mutation -> (installer, {configuration: the checks that fail there})
MUTATIONS = {
    "scaled purity": (scaled_purity, dict.fromkeys(CONFIGS, {"traciality", "reconstruction"})),
    "near-identity sampler": (
        near_identity_sampler,
        {(2, 0): CROWDED | {"standardisation"}, (3, 0): CROWDED | {"standardisation"}, (4, 7): CROWDED},
    ),
    "transposed kernel": (transposed_kernel, dict.fromkeys(CONFIGS, {"covariance"})),
    "cube moduli": (cube_moduli, {(4, 7): {"moduli_fraction"}}),
}


def verify(capsys, n: int, seed: int) -> tuple[int, list[dict]]:
    code = main(["verify", "--n", str(n), *CONFIGS[n, seed], "--samples", "20000", "--seed", str(seed)])
    return code, json.loads(capsys.readouterr().out)["checks"]


@pytest.mark.parametrize("config", list(CONFIGS), ids=str)
def test_unmutated_verify_passes(config, capsys):
    code, checks = verify(capsys, *config)
    assert code == 0 and {c["check"] for c in checks} == CHECKS
    assert all(c["pass"] for c in checks)


CELLS = [(name, config) for name, (_, cells) in MUTATIONS.items() for config in cells]


@pytest.mark.parametrize(("name", "config"), CELLS, ids=[f"{name} {config}" for name, config in CELLS])
def test_mutation_turns_its_checks_red(name, config, monkeypatch, capsys):
    install, cells = MUTATIONS[name]
    install(monkeypatch)
    code, checks = verify(capsys, *config)
    red = {c["check"]: c["z"] for c in checks if not c["pass"]}
    assert code == 1
    assert set(red) == cells[config]
    assert all(abs(z) >= 4 for z in red.values()), red


def test_every_check_turns_red_under_some_mutation():
    assert set().union(*(reds for _, cells in MUTATIONS.values() for reds in cells.values())) == CHECKS
