"""The swphase benchmark workloads: inputs from a seed, operations, and their oracles.

Every workload is one closed-loop caller in one process: the next operation
starts when the previous one returns.  An operation is one CLI invocation
(`swphase.cli.main`, in-process) or one library check call.  Inputs (program
seeds, moduli, states, grids) come from the workload seed through numpy's
`default_rng`; the program only receives the generated values.

Why these workloads:

* verify-sweep -- the user's main Monte Carlo job, `swphase verify` at 2^14
  samples for N=2, N=3 (nu=-0.5 and nu=-1), N=4 and N=6.  Most time goes to
  `_streams` and `group.haar_batch`, at N on both sides of the LAPACK versus
  Gram-Schmidt crossover; it also covers the `kernel` fraction loop and the
  `wigner` symbols and reconstruction.  Each check draws its own seed, so it
  bypasses "draw once, evaluate many".
* moment-panel -- the library calls of the moment and reconstruction
  criteria: a panel of Weingarten patterns per N (each pattern redraws the
  same samples today), `reconstruct_state` at S and 4S (the kernel batch is
  computed twice per sample today), and one large-S fourth moment whose
  memory grows with S.  It exercises draw-once panels, one kernel per batch
  and bounded memory.
* wigner-grid -- `swphase wigner-eval` on interior states over the five chart
  routes, from ~50 points (per-command cost) to ~10^4 points (per-point
  cost), writing JSON and CSV files.  No Haar sampling at all: the time goes
  to the `group` closed forms and charts, the `states` positivity check and
  `cli` serialisation, so Monte Carlo optimisations should leave it flat.
"""
from __future__ import annotations

import csv
import json
import math
import warnings
from dataclasses import dataclass
from typing import Callable

import numpy as np

# An operation fails when a statistical check is this many standard errors
# off; between the program's own 3 sigma rule and this, it is only flagged.
FAIL_Z = 5.0
# Closed form against trace form at one grid point: both are round-off exact.
SPOT_TOL = 1e-10
SPOT_POINTS = 6


@dataclass
class Op:
    name: str
    items: int  # Monte Carlo samples requested, or Wigner grid points evaluated
    call: Callable[[], object]
    # Returns (verdict, fingerprint): verdict is "ok", "flag" (a statistical
    # flag, not a failure) or "fail: <reason>"; the fingerprint is the exact
    # output, compared whenever the operation is repeated.
    check: Callable[[object], tuple[str, bytes]]


@dataclass
class Workload:
    ops: list[Op]
    first_call: str  # Python source a fresh process runs for setup_s
    inject_wrong_kernel: Callable[[object], None]  # takes a tracer.Patches


def _seed(rng) -> int:
    return int(rng.integers(0, 2**31))


def _unit(rng, size: int) -> np.ndarray:
    v = rng.normal(size=size)
    return v / np.linalg.norm(v)


def _csv_floats(values) -> str:
    return ",".join(repr(float(x)) for x in values)


def _finite(*values) -> bool:
    return all(math.isfinite(v) for v in values)


def _cli_call(sw, argv):
    def call():
        try:
            return sw.cli.main(argv)
        except SystemExit as exc:  # argparse rejects its input with exit code 2
            return exc.code

    return call


# --------------------------------------------------------------------------
# verify-sweep

# 2^14 rather than the CLI default 1e5, so that a run holds about ten passes
# and its medians do not rest on a few samples per operation.
VERIFY_SAMPLES = 1 << 14


def _check_verify(path):
    def check(rc):
        if rc == 2:
            return "fail: exit 2", b""
        text = path.read_bytes()
        payload = json.loads(text)
        for record in payload["checks"]:
            values = [float(record[k]) for k in ("mc", "target", "sigma", "z")]
            if not _finite(*values):
                return f"fail: non-finite {record['check']} record", text
            if abs(record["z"]) > FAIL_Z:
                return f"fail: {record['check']} |z| = {record['z']:.2f}", text
            if record["sigma"] == 0.0 and not record["pass"]:
                return f"fail: exact check {record['check']} failed", text
        if (rc == 0) != payload["all_pass"]:
            return f"fail: exit {rc} disagrees with all_pass", text
        return ("flag" if rc == 1 else "ok"), text

    return check


def verify_sweep(sw, rng, tmp) -> Workload:
    kernels = [
        (2, []),
        (3, ["--nu=-0.5"]),
        (3, ["--nu=-1"]),
        (4, ["--mu=" + _csv_floats(_unit(rng, 3))]),
        (6, ["--mu=" + _csv_floats(_unit(rng, 5))]),
    ]
    ops = []
    for i, (n, kernel) in enumerate(kernels):
        out = tmp / f"verify-{i}.json"
        argv = ["verify", "--n", str(n), *kernel, "--samples", str(VERIFY_SAMPLES),
                "--seed", str(_seed(rng)), "--output", str(out)]
        # norm, standardisation, traciality, two moments, reconstruction, and
        # the moduli fraction (which samples only for N > 2)
        items = VERIFY_SAMPLES * (7 if n > 2 else 6)
        ops.append(Op(f"verify n={n} {' '.join(kernel)}".strip(), items, _cli_call(sw, argv), _check_verify(out)))

    def inject(patches):
        # A spectrum off the master equations: the traceless part scaled by
        # 1.25 breaks tr(Delta^2) = N, which traciality and reconstruction see.
        original = sw.wigner.kernel_diagonal

        def scaled(p, basis):
            d = original(p, basis)
            return 1.0 / p.dim_n + 1.25 * (d - 1.0 / p.dim_n)

        patches.set_attr(sw.wigner, "kernel_diagonal", scaled)

    first = f"import swphase.cli as c; c.main(['verify', '--n', '2', '--samples', '10000', '--seed', '{_seed(rng)}'])"
    return Workload(ops, first, inject)


# --------------------------------------------------------------------------
# moment-panel

PANEL_SAMPLES = 1 << 14
RECON_SAMPLES = 1 << 14
# Large enough that its memory shows in peak_rss_mb, small enough that a pass
# is a few seconds long and a run holds several passes.
BIG_SAMPLES = 1 << 19
WG2_PATTERNS = [
    (1, 1, 1, 1), (1, 2, 2, 1), (2, 1, 1, 2), (2, 2, 2, 2), (1, 1, 2, 2),
    (1, 1, 1, 2), (1, 2, 1, 1), (2, 1, 2, 2), (1, 2, 2, 2), (2, 2, 1, 1),
]
WG4_PATTERNS = [
    (1, 1, 1, 1, 1, 1, 1, 1), (1, 1, 2, 2, 1, 1, 2, 2), (1, 2, 2, 1, 1, 2, 2, 1),
    (1, 1, 2, 2, 2, 2, 1, 1), (1, 1, 2, 1, 1, 1, 2, 1), (1, 1, 2, 2, 2, 1, 1, 2),
    (1, 1, 2, 1, 1, 1, 1, 2), (1, 2, 1, 2, 2, 1, 2, 1), (1, 1, 1, 1, 1, 1, 1, 2),
    (1, 2, 2, 1, 2, 1, 1, 2),
]


def _check_moment(r):
    mc = complex(r.mc)
    if not (_finite(mc.real, mc.imag, r.sigma) and r.sigma > 0.0):
        return "fail: non-finite moment", b""
    z = abs(mc.real - r.closed_form) / r.sigma
    fingerprint = repr((mc, r.closed_form, r.sigma)).encode()
    return (f"fail: |z| = {z:.2f}" if z > FAIL_Z else "ok"), fingerprint


def _check_reconstruction(rho):
    def check(r):
        err = float(np.linalg.norm(r.rho_hat - rho))
        fingerprint = r.rho_hat.tobytes() + repr((r.frobenius_error_estimate, r.antihermitian_residue)).encode()
        if not (_finite(err, r.frobenius_error_estimate, r.antihermitian_residue) and r.frobenius_error_estimate > 0):
            return "fail: non-finite reconstruction", fingerprint
        z = err / r.frobenius_error_estimate
        return (f"fail: error is {z:.2f} standard errors" if z > FAIL_Z else "ok"), fingerprint

    return check


def moment_panel(sw, rng, tmp) -> Workload:
    ops = []
    for n in (2, 3, 4):
        seed = _seed(rng)
        for check, patterns in ((sw.weingarten2_check, WG2_PATTERNS), (sw.weingarten4_check, WG4_PATTERNS)):
            name = check.__name__
            for pattern in patterns:
                call = (lambda name=name, n=n, pattern=pattern, seed=seed:
                        getattr(sw, name)(n, pattern, PANEL_SAMPLES, seed))
                ops.append(Op(f"{name} n={n} {pattern}", PANEL_SAMPLES, call, _check_moment))

    state = sw.rho_from_bloch(3, _unit(rng, 8) * rng.uniform(0.2, 0.45))
    moduli = sw.qutrit_mu(rng.uniform(-0.95, -0.4))
    seed = _seed(rng)
    for samples in (RECON_SAMPLES, 4 * RECON_SAMPLES):
        def call(samples=samples):
            return sw.reconstruct_state(sw.state_wf_sampler(state, moduli), 3, moduli, samples, seed)

        ops.append(Op(f"reconstruct n=3 S={samples}", samples, call, _check_reconstruction(state.rho)))

    pattern = WG4_PATTERNS[int(rng.integers(len(WG4_PATTERNS)))]
    seed = _seed(rng)
    ops.append(Op(f"weingarten4_check n=3 {pattern} S={BIG_SAMPLES}", BIG_SAMPLES,
                  lambda: sw.weingarten4_check(3, pattern, BIG_SAMPLES, seed), _check_moment))

    def inject(patches):
        # The sampler builds U^dag P U where reconstruction weights U P U^dag.
        original = sw.wigner.state_wf_sampler

        def adjoint_sampler(state, moduli):
            sampler = original(state, moduli)
            return lambda u: sampler(u.conj().transpose(0, 2, 1))

        patches.replace(original, adjoint_sampler)

    first = f"import swphase as s; s.weingarten2_check(2, (1, 1, 1, 1), 10000, {_seed(rng)})"
    return Workload(ops, first, inject)


# --------------------------------------------------------------------------
# wigner-grid

CHART_RANGES = {
    "alpha": 2 * math.pi, "beta": math.pi, "gamma": 4 * math.pi,
    "a": 2 * math.pi, "b": math.pi, "theta": math.pi / 2,
}
QUBIT = ("alpha", "beta")
GENERIC = ("alpha", "beta", "gamma", "a", "b", "theta")
REDUCED = ("alpha", "beta", "gamma", "theta")
# Points per axis for grids of 48, 240, 960, 2400 and 9600 points.  Five
# sizes put the op_s median and 90th percentile inside one size each.
SHAPES = {
    QUBIT: [(8, 6), (16, 15), (32, 30), (48, 50), (96, 100)],
    GENERIC: [(4, 3, 1, 1, 2, 2), (5, 4, 1, 2, 3, 2), (6, 5, 2, 2, 4, 2), (8, 5, 2, 2, 5, 3), (10, 8, 3, 2, 5, 4)],
    REDUCED: [(4, 3, 2, 2), (6, 5, 2, 4), (8, 6, 5, 4), (10, 8, 5, 6), (12, 10, 8, 10)],
}


def _grid_specs(rng, angles, shape):
    specs = []
    for name, count in zip(angles, shape):
        hi = CHART_RANGES[name]
        start = float(rng.uniform(0.0, 0.5 * hi))
        stop = float(rng.uniform(start + 0.25 * hi, hi)) if count > 1 else start
        specs += ["--grid", f"{name}={start!r}:{stop!r}:{count}"]
    return specs


def _read_rows(path, fmt):
    if fmt == "json":
        payload = json.loads(path.read_bytes())
        return payload["chart"], payload["columns"], payload["rows"]
    with open(path, newline="") as fh:
        lines = list(csv.reader(fh))
    return None, lines[0], [[float(x) for x in row] for row in lines[1:]]


def wigner_grid(sw, rng, tmp) -> Workload:
    # Genuine functions for the oracle, captured before any patching.
    assemble, value, su3, su2 = sw.assemble_kernel, sw.wigner_value, sw.su3_from_euler, sw.su2_coset
    b3 = sw.gell_mann_basis(3)
    swap13 = np.zeros((3, 3))
    swap13[0, 2] = swap13[1, 1] = swap13[2, 0] = 1.0

    def su3_at(point):
        return su3(sw.EulerSU3(**point), b3).u

    def adapted_at(point):
        # The adapted chart at angles w is the level-1/3 swap conjugate of the
        # standard chart at -w (see group.nprime_rotation).
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u = su3_at({k: -v for k, v in point.items()})
        return swap13 @ u @ swap13

    mu = _unit(rng, 2)
    nu = float(rng.uniform(-0.95, -0.4))
    routes = [
        # name, n, kernel arguments, moduli, chart reported, angles, unitary at a point
        ("qubit", 2, [], sw.moduli_point(2, [1.0]), "qubit", QUBIT,
         lambda point: su2(sw.EulerSU2(**point)).u),
        ("standard-nu", 3, ["--nu=" + repr(nu)], sw.qutrit_mu(nu), "standard", GENERIC, su3_at),
        ("standard-mu", 3, ["--mu=" + _csv_floats(mu)], sw.moduli_point(3, mu), "standard", GENERIC, su3_at),
        ("reduced", 3, ["--nu=-1"], sw.qutrit_mu(-1.0), "reduced", REDUCED, su3_at),
        ("adapted", 3, ["--nu=" + repr(-1.0 / 3.0)], sw.qutrit_mu(-1.0 / 3.0), "adapted", REDUCED, adapted_at),
    ]
    ops = []
    for route, n, kernel, moduli, chart, angles, unitary in routes:
        radius = rng.uniform(0.2, 0.9) if n == 2 else rng.uniform(0.2, 0.45)
        xi = _unit(rng, n * n - 1) * radius
        state = sw.rho_from_bloch(n, xi)
        basis = sw.gell_mann_basis(n)
        for shape in SHAPES[angles]:
            size = math.prod(shape)
            grid = _grid_specs(rng, angles, shape)
            spot_rng = np.random.default_rng(_seed(rng))
            for fmt in ("json", "csv"):
                out = tmp / f"grid-{route}-{size}.{fmt}"
                argv = ["wigner-eval", "--n", str(n), *kernel, "--state=" + _csv_floats(xi), *grid,
                        "--format", fmt, "--output", str(out)]
                spots = spot_rng.choice(size, SPOT_POINTS, replace=False)

                def check(rc, out=out, fmt=fmt, size=size, chart=chart, angles=angles,
                          moduli=moduli, unitary=unitary, state=state, basis=basis, spots=spots):
                    if rc != 0:
                        return f"fail: exit {rc}", b""
                    text = out.read_bytes()
                    got_chart, columns, rows = _read_rows(out, fmt)
                    if got_chart not in (None, chart) or list(columns) != [*angles, "w"] or len(rows) != size:
                        return f"fail: wrong chart, columns or row count ({got_chart}, {len(rows)})", text
                    if not all(_finite(*row) for row in rows):
                        return "fail: non-finite grid value", text
                    for k in spots:
                        point = dict(zip(angles, rows[k][:-1]))
                        ref = value(state, assemble(moduli, unitary(point), basis))
                        if abs(rows[k][-1] - ref) > SPOT_TOL:
                            return f"fail: point {k} gives {rows[k][-1]!r}, trace form {ref!r}", text
                    return "ok", text

                ops.append(Op(f"wigner-eval {route} {size} {fmt}", size, _cli_call(sw, argv), check))

    def inject(patches):
        # The closed form of the interior qutrit kernels uses -mu.
        original = sw.kernel.qutrit_mu

        def flipped(nu):
            p = original(nu)
            return sw.kernel.ModuliPoint(dim_n=p.dim_n, mu=-p.mu)

        patches.set_attr(sw.wigner, "qutrit_mu", flipped)

    first = (
        "import swphase.cli as c; c.main(['wigner-eval', '--n', '3', '--nu=-0.5', "
        f"'--state={_csv_floats(_unit(rng, 8) * 0.3)}', '--grid', 'beta=0:1:3'])"
    )
    return Workload(ops, first, inject)


WORKLOADS = {"verify-sweep": verify_sweep, "moment-panel": moment_panel, "wigner-grid": wigner_grid}
