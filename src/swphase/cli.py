"""Command-line front end.

Subcommands:

* ``spectrum``       -- kernel descriptor (spectrum, multiplicities, flag data).
* ``moduli-sample``  -- Monte Carlo fundamental-domain fraction of the moduli sphere.
* ``wigner-eval``    -- Wigner-function values on an inclusive angle grid.
* ``reconstruct``    -- Monte Carlo state reconstruction from Wigner data.
* ``verify``         -- the full postulate verification suite.

All numbers serialize with 17 significant digits so identical configurations
produce byte-identical output files; the JSON and CSV formats carry the same
numeric payload.  Exit codes: 0 on success (and all checks passing), 1 when a
verification suite fails, 2 on usage or domain errors.
"""
from __future__ import annotations

import argparse
import json
import math
import sys
from typing import Sequence

import numpy as np

from ._streams import counter_normals
from .algebra import gell_mann_basis
from .config import TOLERANCES
from .errors import DomainError, SWPhaseError, ValidationError
from .group import haar_sample, weingarten2_check, weingarten4_check
from .kernel import (
    ModuliPoint,
    _check_nu,
    isotropy_signature,
    moduli_domain_fraction,
    moduli_point,
    qutrit_det_invariant,
    qutrit_mu,
    spectrum_from_moduli,
    verify_master,
)
from .states import DensityState, rho_from_bloch, state_as_dict, state_from_dict
from .wigner import (
    chart_wf,
    check_covariance,
    check_norm,
    check_standardisation,
    check_traciality,
    kernel_chart,
    reconstruct_state,
    seeded_hermitian,
    state_wf_sampler,
)

_Z_LIMIT = 3.0


# --------------------------------------------------------------------------
# deterministic serialization


def _fmt_float(x: float) -> str:
    return f"{float(x):.17g}"


def _json_float(x: float) -> str:
    # mirror json.dumps for non-finite values so output always parses back
    x = float(x)
    if math.isnan(x):
        return "NaN"
    if math.isinf(x):
        return "Infinity" if x > 0 else "-Infinity"
    return _fmt_float(x)


def _render_json(value, indent: int = 0) -> str:
    pad = "  " * indent
    inner = "  " * (indent + 1)
    if isinstance(value, dict):
        if not value:
            return "{}"
        items = [f'{inner}{json.dumps(k)}: {_render_json(v, indent + 1)}' for k, v in value.items()]
        return "{\n" + ",\n".join(items) + f"\n{pad}}}"
    if isinstance(value, (list, tuple)):
        if not value:
            return "[]"
        parts = [_render_json(v, indent + 1) for v in value]
        if all(not isinstance(v, (dict, list, tuple)) for v in value):
            return "[" + ", ".join(parts) + "]"
        return "[\n" + ",\n".join(inner + p for p in parts) + f"\n{pad}]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _json_float(value)
    if value is None:
        return "null"
    if isinstance(value, str):
        return json.dumps(value)
    raise TypeError(f"cannot serialize {type(value)!r}")


def _csv_cell(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return _fmt_float(value)
    if value is None:
        return ""
    return str(value)


def _render_csv(header: Sequence[str], rows: Sequence[Sequence]) -> str:
    lines = [",".join(header)]
    lines.extend(",".join(_csv_cell(c) for c in row) for row in rows)
    return "\n".join(lines)


def _emit(args, payload: dict, header: Sequence[str], rows: Sequence[Sequence]) -> None:
    text = _render_json(payload) if args.format == "json" else _render_csv(header, rows)
    text += "\n"
    if args.output == "-":
        sys.stdout.write(text)
    else:
        with open(args.output, "w", newline="\n") as fh:
            fh.write(text)


# --------------------------------------------------------------------------
# shared argument handling


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",") if x.strip() != ""]
    except ValueError as exc:
        raise ValidationError(f"cannot parse float list {text!r}: {exc}") from exc


def _resolve_moduli(args) -> tuple[ModuliPoint, float | None]:
    """Resolve --nu/--mu into a moduli point; returns the nu value when given."""
    n = args.n
    nu = getattr(args, "nu", None)
    mu = getattr(args, "mu", None)
    if nu is not None and mu is not None:
        raise ValidationError("pass exactly one of --nu and --mu, not both")
    if nu is not None:
        if n != 3:
            raise ValidationError("--nu selects the qutrit kernel family and needs --n 3")
        return qutrit_mu(nu), _check_nu(nu)
    if mu is not None:
        return moduli_point(n, _parse_floats(mu)), None
    if n == 2:
        return moduli_point(2, [1.0]), None
    raise ValidationError("a kernel family member is required: pass --nu (n=3) or --mu")


def _resolve_state(args) -> DensityState:
    inline = getattr(args, "state", None)
    path = getattr(args, "state_file", None)
    if (inline is None) == (path is None):
        raise ValidationError("pass exactly one of --state and --state-file")
    if inline is not None:
        return rho_from_bloch(args.n, np.asarray(_parse_floats(inline)))
    with open(path) as fh:
        payload = json.load(fh)
    state = state_from_dict(payload)
    if state.dim_n != args.n:
        raise ValidationError(f"state file has n={state.dim_n}, command uses --n {args.n}")
    return state


def _seeded_ball_state(n: int, seed: int) -> DensityState:
    """A reproducible interior state: direction from the substream, radius 0.8/(N-1).

    The ball of Bloch radius `1/(N-1)` lies inside the state space for every
    direction, so this construction never fails positivity.
    """
    direction = counter_normals(seed, 0, 1, n * n - 1)[0]
    direction /= np.linalg.norm(direction)
    return rho_from_bloch(n, 0.8 / (n - 1) * direction)


# --------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> int:
    moduli, nu = _resolve_moduli(args)
    basis = gell_mann_basis(args.n)
    spec = spectrum_from_moduli(moduli, basis)
    multiplicities, flag_dim = isotropy_signature(spec)
    trace_res, purity_res = verify_master(spec)
    det_inv = qutrit_det_invariant(spec) if args.n == 3 else None
    payload = {
        "n": args.n,
        "mu": [float(x) for x in moduli.mu],
        "nu": nu,
        "spectrum": [float(x) for x in spec.eigenvalues],
        "multiplicities": list(multiplicities),
        "flag_dims": list(spec.flag_dims),
        "flag_dim": flag_dim,
        "degenerate": spec.degenerate,
        "det_invariant": det_inv,
        "trace_residual": trace_res,
        "purity_residual": purity_res,
    }
    header = (
        ["n"]
        + [f"mu_{i + 1}" for i in range(len(moduli.mu))]
        + ([] if nu is None else ["nu"])
        + [f"spectrum_{i + 1}" for i in range(args.n)]
        + [f"multiplicity_{i + 1}" for i in range(len(multiplicities))]
        + ["flag_dim", "degenerate"]
        + ([] if det_inv is None else ["det_invariant"])
        + ["trace_residual", "purity_residual"]
    )
    row = (
        [args.n]
        + [float(x) for x in moduli.mu]
        + ([] if nu is None else [nu])
        + [float(x) for x in spec.eigenvalues]
        + list(multiplicities)
        + [flag_dim, spec.degenerate]
        + ([] if det_inv is None else [det_inv])
        + [trace_res, purity_res]
    )
    _emit(args, payload, header, [row])
    return 0


def _fraction_record(n: int, samples: int, seed: int) -> dict:
    fraction = moduli_domain_fraction(n, samples, seed)
    target = 1.0 / math.factorial(n)
    sigma = math.sqrt(target * (1.0 - target) / samples) if n > 2 else 0.0
    z = abs(fraction - target) / sigma if sigma > 0 else 0.0
    return {
        "check": "moduli_fraction",
        "n": n,
        "moduli": [],
        "samples": samples,
        "seed": seed,
        "mc": fraction,
        "target": target,
        "sigma": sigma,
        "z": z,
        "pass": z <= _Z_LIMIT,
    }


def cmd_moduli_sample(args) -> int:
    record = _fraction_record(args.n, args.samples, args.seed)
    header = ["check", "n", "samples", "seed", "mc", "target", "sigma", "z", "pass"]
    row = [record[k] for k in header]
    _emit(args, record, header, [row])
    return 0 if record["pass"] else 1


#: Largest wigner-eval grid, in points; its rows are held in memory at once.
_MAX_GRID_POINTS = 10**6


def _parse_grid(specs: Sequence[str] | None, allowed: Sequence[str]) -> dict[str, np.ndarray]:
    axes = {}
    for spec in specs or ():
        name, _, rest = spec.partition("=")
        if name not in allowed:
            raise ValidationError(
                f"angle {name!r} is not a chart coordinate here (expected one of {', '.join(allowed)})"
            )
        parts = rest.split(":")
        if len(parts) != 3:
            raise ValidationError(f"grid spec {spec!r} must look like name=start:stop:count")
        try:
            start, stop, count = float(parts[0]), float(parts[1]), int(parts[2])
        except ValueError as exc:
            raise ValidationError(f"cannot parse grid spec {spec!r}: {exc}") from exc
        if not (math.isfinite(start) and math.isfinite(stop)):
            raise ValidationError(f"grid spec {spec!r} has a non-finite end point")
        if count < 1:
            raise ValidationError(f"grid count must be >= 1, got {count}")
        axes[name] = (start, stop, count)
    size = math.prod(count for _, _, count in axes.values())
    if size > _MAX_GRID_POINTS:
        raise DomainError(f"grid of {size} points exceeds the limit of {_MAX_GRID_POINTS}")
    # inclusive of both endpoints; omitted angles stay at 0
    return {name: np.linspace(*axes[name]) if name in axes else np.zeros(1) for name in allowed}


def cmd_wigner_eval(args) -> int:
    state = _resolve_state(args)
    moduli, nu = _resolve_moduli(args)
    chart = kernel_chart(moduli)
    grids = _parse_grid(args.grid, chart.angles)
    mesh = [m.reshape(-1) for m in np.meshgrid(*(grids[name] for name in chart.angles), indexing="ij")]
    # --nu goes in as nu: like qutrit_wf, the values then take their moduli from wigner.qutrit_mu,
    # which the wrong-kernel self-test of perfbench replaces
    w = chart_wf(state.bloch, moduli if nu is None else nu, chart, dict(zip(chart.angles, mesh)))
    rows = np.column_stack([*mesh, w]).tolist()

    columns = [*chart.angles, "w"]
    payload = {
        "n": args.n,
        "mu": [float(x) for x in moduli.mu],
        "nu": nu,
        "chart": chart.name,
        "state": state_as_dict(state),
        "columns": columns,
        "rows": rows,
    }
    _emit(args, payload, columns, rows)
    return 0


def cmd_reconstruct(args) -> int:
    if args.samples < 1000:
        raise DomainError(f"need at least 1000 samples, got {args.samples}")
    state = _resolve_state(args)
    moduli, nu = _resolve_moduli(args)
    sampler = state_wf_sampler(state, moduli)
    result = reconstruct_state(sampler, args.n, moduli, args.samples, args.seed)
    error = float(np.linalg.norm(result.rho_hat - state.rho))
    payload = {
        "n": args.n,
        "mu": [float(x) for x in moduli.mu],
        "nu": nu,
        "samples": args.samples,
        "seed": args.seed,
        "state": state_as_dict(state),
        "rho_hat_re": [[float(x) for x in row] for row in result.rho_hat.real],
        "rho_hat_im": [[float(x) for x in row] for row in result.rho_hat.imag],
        "frobenius_error": error,
        "frobenius_error_estimate": result.frobenius_error_estimate,
        "antihermitian_residue": result.antihermitian_residue,
    }
    n = args.n
    header = (
        ["n", "samples", "seed"]
        + [f"mu_{i + 1}" for i in range(len(moduli.mu))]
        + [f"rho_re_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
        + [f"rho_im_{i + 1}{j + 1}" for i in range(n) for j in range(n)]
        + ["frobenius_error", "frobenius_error_estimate", "antihermitian_residue"]
    )
    row = (
        [n, args.samples, args.seed]
        + [float(x) for x in moduli.mu]
        + [float(x) for x in result.rho_hat.real.reshape(-1)]
        + [float(x) for x in result.rho_hat.imag.reshape(-1)]
        + [error, result.frobenius_error_estimate, result.antihermitian_residue]
    )
    _emit(args, payload, header, [row])
    return 0


def _statistical_record(check: str, args, moduli, seed: int, mc: float, target: float, sigma: float) -> dict:
    z = abs(mc - target) / sigma if sigma > 0 else (0.0 if abs(mc - target) <= TOLERANCES.algebraic else math.inf)
    return {
        "check": check,
        "n": args.n,
        "moduli": [float(x) for x in moduli.mu],
        "samples": args.samples,
        "seed": seed,
        "mc": mc,
        "target": target,
        "sigma": sigma,
        "z": z,
        "pass": z <= _Z_LIMIT,
    }


def cmd_verify(args) -> int:
    moduli, _ = _resolve_moduli(args)
    n, samples, seed = args.n, args.samples, args.seed
    state = _seeded_ball_state(n, seed + 11)
    records = []

    residual = check_covariance(state, haar_sample(n, seed + 12), moduli, haar_sample(n, seed + 13).u)
    records.append(
        {
            "check": "covariance",
            "n": n,
            "moduli": [float(x) for x in moduli.mu],
            "samples": 1,
            "seed": seed + 12,
            "mc": residual,
            "target": 0.0,
            "sigma": 0.0,
            "z": 0.0,
            "pass": residual <= TOLERANCES.algebraic,
        }
    )

    norm = check_norm(state, moduli, samples, seed + 1)
    records.append(_statistical_record("norm", args, moduli, seed + 1, norm.mc, 1.0, norm.sigma))

    a = seeded_hermitian(n, seed + 102)
    b = seeded_hermitian(n, seed + 103)
    std = check_standardisation(a, moduli, samples, seed + 2)
    records.append(_statistical_record("standardisation", args, moduli, seed + 2, std.mc, std.target, std.sigma))

    trc = check_traciality(a, b, moduli, samples, seed + 3)
    records.append(_statistical_record("traciality", args, moduli, seed + 3, trc.mc, trc.target, trc.sigma))

    w2 = weingarten2_check(n, (1, 1, 1, 1), samples, seed + 4)
    records.append(_statistical_record("weingarten2", args, moduli, seed + 4, w2.mc.real, w2.closed_form, w2.sigma))

    w4 = weingarten4_check(n, (1, 1, 1, 1, 1, 1, 1, 1), samples, seed + 5)
    records.append(_statistical_record("weingarten4", args, moduli, seed + 5, w4.mc.real, w4.closed_form, w4.sigma))

    fraction = _fraction_record(n, samples, seed + 6)
    fraction["moduli"] = [float(x) for x in moduli.mu]
    records.append(fraction)

    recon = reconstruct_state(state_wf_sampler(state, moduli), n, moduli, samples, seed + 7)
    err = float(np.linalg.norm(recon.rho_hat - state.rho))
    records.append(
        _statistical_record("reconstruction", args, moduli, seed + 7, err, 0.0, recon.frobenius_error_estimate)
    )

    all_pass = all(r["pass"] for r in records)
    payload = {
        "n": n,
        "moduli": [float(x) for x in moduli.mu],
        "samples": samples,
        "seed": seed,
        "checks": records,
        "all_pass": all_pass,
    }
    header = ["check", "n"] + [f"mu_{i + 1}" for i in range(len(moduli.mu))] + [
        "samples",
        "seed",
        "mc",
        "target",
        "sigma",
        "z",
        "pass",
    ]
    rows = [
        [r["check"], r["n"]]
        + list(r["moduli"])
        + [r["samples"], r["seed"], r["mc"], r["target"], r["sigma"], r["z"], r["pass"]]
        for r in records
    ]
    _emit(args, payload, header, rows)
    return 0 if all_pass else 1


# --------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="swphase",
        description="Stratonovich-Weyl kernels and Wigner functions for N-level systems.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(sp, *, kernel=False, mc=False, state=False):
        sp.add_argument("--n", type=int, required=True, help="Hilbert-space dimension N >= 2")
        if kernel:
            sp.add_argument("--nu", type=float, default=None, help="qutrit family parameter in [-1, -1/3] (n=3 only)")
            sp.add_argument("--mu", type=str, default=None, help="comma-separated unit moduli vector of length N-1")
        if mc:
            sp.add_argument("--samples", type=int, default=100_000, help="Monte Carlo sample count")
            sp.add_argument("--seed", type=int, default=0, help="master seed of the substream scheme")
        if state:
            sp.add_argument("--state", type=str, default=None, help="comma-separated Bloch vector")
            sp.add_argument("--state-file", type=str, default=None, help="JSON state file {n, bloch}")
        sp.add_argument("--output", type=str, default="-", help="output file path, or - for stdout")
        sp.add_argument("--format", choices=("json", "csv"), default="json")

    sp = sub.add_parser("spectrum", help="kernel spectrum descriptor")
    common(sp, kernel=True)
    sp.set_defaults(func=cmd_spectrum)

    sp = sub.add_parser("moduli-sample", help="fundamental-domain fraction of the moduli sphere")
    common(sp, mc=True)
    sp.set_defaults(func=cmd_moduli_sample)

    sp = sub.add_parser("wigner-eval", help="Wigner values on an angle grid")
    common(sp, kernel=True, state=True)
    sp.add_argument(
        "--grid",
        action="append",
        metavar="angle=start:stop:count",
        help="inclusive grid for one chart angle; may repeat, omitted angles stay at 0",
    )
    sp.set_defaults(func=cmd_wigner_eval)

    sp = sub.add_parser("reconstruct", help="Monte Carlo state reconstruction")
    common(sp, kernel=True, mc=True, state=True)
    sp.set_defaults(func=cmd_reconstruct)

    sp = sub.add_parser("verify", help="full postulate verification suite")
    common(sp, kernel=True, mc=True)
    sp.set_defaults(func=cmd_verify)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except SWPhaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
