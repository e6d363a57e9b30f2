"""Command-line front end.

The subcommands ``spectrum``, ``moduli-sample``, ``wigner-eval``, ``reconstruct`` and
``verify`` are one row each of the table in `_build_parser`: name, help and argument
groups.  The parser is built once per process.  `main` runs ``cmd_<name>`` (hyphens as
underscores), looked up in this module at each call, which returns the exit code, the JSON
payload and the CSV header and rows; only `main` writes them, through `_emit`.

All numbers serialize with 17 significant digits so identical configurations produce
byte-identical output files.  Exit codes: 0 on success (and all checks passing), 1 when
a verification suite fails, 2 on usage or domain errors.
"""
from __future__ import annotations

import argparse
import contextlib
import functools
import json
import math
import sys
from typing import Iterable, Iterator, Sequence

import numpy as np

from ._streams import counter_normals
from .algebra import gell_mann_basis
from .config import TOLERANCES
from .errors import DomainError, SWPhaseError, ValidationError
from .group import _MOMENT_MIN_SAMPLES, haar_sample, weingarten2_check, weingarten4_check
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


#: Each format's spelling of booleans, None, strings and the non-finite floats (keyed by their `.17g` text).
_JSON = {True: "true", False: "false", None: "null", str: json.dumps,
         "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}
_CSV = {True: "1", False: "0", None: "", str: str}


def _scalar(value, spelling: dict) -> str:
    """One scalar: floats with 17 significant digits, integers exact, the rest as `spelling` says."""
    if isinstance(value, (float, np.floating)):
        text = f"{float(value):.17g}"
        return spelling.get(text, text)
    if isinstance(value, bool) or value is None:
        return spelling[value]
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    return spelling[str](value)


#: Rows of a float table that one `%` template renders, and `_emit` writes, at a time.
_BLOCK_ROWS = 4096


def _blocks(rows, row_text, lead: str, sep: str, end: str, between: str) -> Iterator[str]:
    """Rows, each `row_text(row)`, joined by `between`, `_BLOCK_ROWS` to a piece opened by a newline or `between`."""
    for first in range(0, len(rows), _BLOCK_ROWS):
        block = rows[first:first + _BLOCK_ROWS]
        if isinstance(block, np.ndarray) and block.dtype.kind == "f" and np.isfinite(block).all():
            # each distinct float64 (by bits: -0.0 is not 0.0) spelled once by `%.17g`, then placed by a `%s` template
            bits, inverse = np.unique(np.ascontiguousarray(block, np.float64).view(np.uint64), return_inverse=True)
            words = np.array(("%.17g " * len(bits) % tuple(bits.view(np.float64).tolist())).split(), dtype=object)
            text = between.join([lead + sep.join(["%s"] * block.shape[1]) + end] * len(block))
            text %= tuple(words[inverse.ravel()])
        else:
            text = between.join([row_text(r) for r in block])
        yield (between if first else "\n") + text


def _json_pieces(value, indent: str = "") -> Iterator[str]:
    """JSON text of `value`, piece by piece; a 2-D float array renders as the list of its rows."""
    inner = indent + "  "
    if isinstance(value, dict) and value:
        yield "{"
        for i, (key, v) in enumerate(value.items()):
            yield f"{',' if i else ''}\n{inner}{json.dumps(key)}: "
            yield from _json_pieces(v, inner)
        yield f"\n{indent}}}"
    elif not isinstance(value, (list, tuple, np.ndarray)):
        yield "{}" if isinstance(value, dict) else _scalar(value, _JSON)
    elif getattr(value, "ndim", 0) == 2 or any(isinstance(v, (dict, list, tuple)) for v in value):
        yield "["
        yield from _blocks(value, lambda v: inner + _render_json(v, inner), inner + "[", ", ", "]", ",\n")
        yield f"\n{indent}]"
    else:
        yield "[" + ", ".join([_scalar(v, _JSON) for v in value]) + "]"


def _csv_pieces(header: Iterable[str], rows) -> Iterator[str]:
    """CSV text of `header` and `rows`, a list of rows or a 2-D float array, piece by piece."""
    yield ",".join(header)
    yield from _blocks(rows, lambda r: ",".join([_scalar(c, _CSV) for c in r]), "", ",", "", "\n")


def _render_json(value, indent: str = "") -> str:
    return "".join(_json_pieces(value, indent))


def _render_csv(header: Iterable[str], rows) -> str:
    return "".join(_csv_pieces(header, rows))


def _row(**fields) -> dict:
    """A CSV row, column -> value: a vector or matrix spreads over `name_1, ...` or `name_11, ...`; None has none."""
    row = {}
    for name, value in fields.items():
        if isinstance(value, (list, tuple, np.ndarray)):
            for index, x in np.ndenumerate(np.asarray(value)):
                row[f"{name}_" + "".join(str(i + 1) for i in index)] = x
        elif value is not None:
            row[name] = value
    return row


def _emit(args, payload: dict, header: Iterable[str], rows) -> None:
    """Write `payload` as JSON, or the CSV table of `header` (a row mapping's keys do) and `rows`, piece by piece."""
    pieces = _json_pieces(payload) if args.format == "json" else _csv_pieces(header, rows)
    with contextlib.nullcontext(sys.stdout) if args.output == "-" else open(args.output, "w", newline="\n") as fh:
        fh.writelines(pieces)
        fh.write("\n")
        fh.flush()  # a closed pipe raises here, inside `main`, rather than at interpreter exit


# --------------------------------------------------------------------------
# shared argument handling


def _parse_floats(text: str) -> list[float]:
    try:
        return [float(x) for x in text.split(",")]  # an empty or blank field does not parse
    except ValueError as exc:
        raise ValidationError(f"cannot parse float list {text!r}: {exc}") from exc


def _resolve_moduli(args) -> tuple[ModuliPoint, float | None]:
    """Resolve --nu/--mu into a moduli point; returns the nu value when given."""
    if args.nu is not None and args.mu is not None:
        raise ValidationError("pass exactly one of --nu and --mu, not both")
    if args.nu is not None:
        if args.n != 3:
            raise ValidationError("--nu selects the qutrit kernel family and needs --n 3")
        return qutrit_mu(args.nu), _check_nu(args.nu)
    if args.mu is not None:
        return moduli_point(args.n, _parse_floats(args.mu)), None
    if args.n == 2:
        return moduli_point(2, [1.0]), None
    raise ValidationError("a kernel family member is required: pass --nu (n=3) or --mu")


def _resolve_state(args) -> DensityState:
    if (args.state is None) == (args.state_file is None):
        raise ValidationError("pass exactly one of --state and --state-file")
    if args.state is not None:
        return rho_from_bloch(args.n, np.asarray(_parse_floats(args.state)))
    try:
        with open(args.state_file) as fh:
            payload = json.load(fh)
    except ValueError as exc:  # malformed JSON, or bytes that are not text
        raise ValidationError(f"cannot read state file {args.state_file!r}: {exc}") from exc
    state = state_from_dict(payload)
    if state.dim_n != args.n:
        raise ValidationError(f"state file has n={state.dim_n}, command uses --n {args.n}")
    return state


def _seeded_ball_state(n: int, seed: int) -> DensityState:
    """A reproducible interior state: direction from the substream, radius 0.8/(N-1).

    The ball of Bloch radius `1/(N-1)` lies inside the state space for every
    direction, so this construction never fails positivity.
    """
    # the generators first, as rho_from_bloch reads them next: an N too large for them fails before N**2 - 1 normals
    direction = counter_normals(seed, 0, 1, len(gell_mann_basis(n).generators))[0]
    direction /= np.linalg.norm(direction)
    return rho_from_bloch(n, 0.8 / (n - 1) * direction)


# --------------------------------------------------------------------------
# subcommands


def cmd_spectrum(args) -> tuple:
    moduli, nu = _resolve_moduli(args)
    spec = spectrum_from_moduli(moduli, gell_mann_basis(args.n))
    multiplicities, flag_dim = isotropy_signature(spec)
    trace_res, purity_res = verify_master(spec)
    payload = {
        "n": args.n,
        "mu": moduli.mu,
        "nu": nu,
        "spectrum": spec.eigenvalues,
        "multiplicities": multiplicities,
        "flag_dims": spec.flag_dims,
        "flag_dim": flag_dim,
        "degenerate": spec.degenerate,
        "det_invariant": qutrit_det_invariant(spec) if args.n == 3 else None,
        "trace_residual": trace_res,
        "purity_residual": purity_res,
    }
    return 0, payload, *_table({"multiplicities": "multiplicity", "flag_dims": None}, payload)


def _record(check: str, r, seed: int) -> dict:
    """The record of `_CHECKS[check]` on the run's inputs `r` and the substream `seed`.

    The one pass rule: |z| <= 3, or within the algebraic tolerance when sigma is 0.
    """
    _, samples, estimate = _CHECKS[check]
    mc, target, sigma = estimate(r, seed)
    z = abs(mc - target) / sigma if sigma > 0 else (0.0 if abs(mc - target) <= TOLERANCES.algebraic else math.inf)
    return {"check": check, "n": r.n, "moduli": r.mu, "samples": samples or r.samples, "seed": seed, "mc": mc,
            "target": target, "sigma": sigma, "z": z, "pass": z <= _Z_LIMIT}


def _moduli_fraction(n: int, samples: int, seed: int) -> tuple[float, float, float]:
    mc = moduli_domain_fraction(n, samples, seed)  # checks samples and seed before sigma divides by samples
    target = 1.0 / math.factorial(n)
    # N=2 is exact (no sampling), so sigma 0 sends it to the algebraic tolerance
    return mc, target, math.sqrt(target * (1.0 - target) / samples) if n > 2 else 0.0


def _reconstruction_error(r, seed: int) -> tuple[float, float, float]:
    recon = reconstruct_state(state_wf_sampler(r.state, r.moduli), r.n, r.moduli, r.samples, seed)
    return float(np.linalg.norm(recon.rho_hat - r.state.rho)), 0.0, recon.frobenius_error_estimate


#: The checks of `verify` in output order: name -> (seed offset past --seed, sample count or None for --samples,
#: estimator).  An estimator returns (mc, target, sigma) from the run's inputs `r` (n, mu, moduli, samples, the state
#: and the Hermitian pair a, b) and the check's seed; it names the functions it calls, so a replaced one runs.
_CHECKS = {
    "covariance": (12, 1, lambda r, seed: (  # algebraic: one sample, sigma 0
        check_covariance(r.state, haar_sample(r.n, seed), r.moduli, haar_sample(r.n, seed + 1).u), 0.0, 0.0)),
    "norm": (1, None, lambda r, seed: ((c := check_norm(r.state, r.moduli, r.samples, seed)).mc, 1.0, c.sigma)),
    "standardisation": (2, None, lambda r, seed: check_standardisation(r.a, r.moduli, r.samples, seed)),
    "traciality": (3, None, lambda r, seed: check_traciality(r.a, r.b, r.moduli, r.samples, seed)),
    "weingarten2": (4, None, lambda r, seed: (
        (m := weingarten2_check(r.n, (1,) * 4, r.samples, seed)).mc.real, m.closed_form, m.sigma)),
    "weingarten4": (5, None, lambda r, seed: (
        (m := weingarten4_check(r.n, (1,) * 8, r.samples, seed)).mc.real, m.closed_form, m.sigma)),
    "moduli_fraction": (6, None, lambda r, seed: _moduli_fraction(r.n, r.samples, seed)),
    "reconstruction": (7, None, lambda r, seed: _reconstruction_error(r, seed)),
}


def _table(columns: dict, *records: dict) -> tuple[dict, list]:
    """CSV header and rows of `records`, each key renamed as `columns` says (None drops it) and spread by `_row`."""
    rows = [_row(**{columns.get(k, k): v for k, v in r.items() if columns.get(k, k)}) for r in records]
    return rows[0], [row.values() for row in rows]


def cmd_moduli_sample(args) -> tuple:
    record = _record("moduli_fraction", argparse.Namespace(n=args.n, mu=(), samples=args.samples), args.seed)
    return 0 if record["pass"] else 1, record, *_table({"moduli": None}, record)


#: Largest wigner-eval grid, in points; its angles and values are held as one float array.
_MAX_GRID_POINTS = 10**6


def _parse_grid(specs: Sequence[str] | None, allowed: Sequence[str]) -> tuple[np.ndarray, ...]:
    axes = {}
    for spec in specs or ():
        name, _, rest = spec.partition("=")
        if name not in allowed:
            raise ValidationError(
                f"angle {name!r} is not a chart coordinate here (expected one of {', '.join(allowed)})"
            )
        if name in axes:
            raise ValidationError(f"angle {name!r} has more than one --grid spec")
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
        if count > 1 and not math.isfinite(stop - start):
            raise ValidationError(f"grid spec {spec!r} spans more than the largest float")
        axes[name] = (start, stop if count > 1 else start, count)  # linspace subtracts the ends even for one point
    size = math.prod(count for _, _, count in axes.values())
    if size > _MAX_GRID_POINTS:
        raise DomainError(f"grid of {size} points exceeds the limit of {_MAX_GRID_POINTS}")
    # inclusive of both endpoints, omitted angles at 0; an open mesh, so a closed form takes each sine once per value
    return np.ix_(*(np.linspace(*axes[name]) if name in axes else np.zeros(1) for name in allowed))


def cmd_wigner_eval(args) -> tuple:
    state = _resolve_state(args)
    moduli, nu = _resolve_moduli(args)
    chart = kernel_chart(moduli)
    axes = _parse_grid(args.grid, chart.angles)
    # --nu goes in as nu: like qutrit_wf, the values then take their moduli from wigner.qutrit_mu,
    # which the wrong-kernel self-test of perfbench replaces
    w = chart_wf(state, moduli if nu is None else nu, chart, dict(zip(chart.angles, axes)))
    rows = np.column_stack([*(np.broadcast_to(axis, w.shape).ravel() for axis in axes), w.ravel()])

    columns = [*chart.angles, "w"]
    payload = {
        "n": args.n,
        "mu": moduli.mu,
        "nu": nu,
        "chart": chart.name,
        "state": state_as_dict(state),
        "columns": columns,
        "rows": rows,
    }
    return 0, payload, columns, rows


def cmd_reconstruct(args) -> tuple:
    state = _resolve_state(args)
    moduli, nu = _resolve_moduli(args)
    sampler = state_wf_sampler(state, moduli)
    result = reconstruct_state(sampler, args.n, moduli, args.samples, args.seed)
    error = float(np.linalg.norm(result.rho_hat - state.rho))
    payload = {
        "n": args.n,
        "mu": moduli.mu,
        "nu": nu,
        "samples": args.samples,
        "seed": args.seed,
        "state": state_as_dict(state),
        "rho_hat_re": result.rho_hat.real,
        "rho_hat_im": result.rho_hat.imag,
        "frobenius_error": error,
        "frobenius_error_estimate": result.frobenius_error_estimate,
        "antihermitian_residue": result.antihermitian_residue,
    }
    row = _row(
        n=args.n, samples=args.samples, seed=args.seed, mu=moduli.mu, rho_re=result.rho_hat.real,
        rho_im=result.rho_hat.imag, frobenius_error=error, frobenius_error_estimate=result.frobenius_error_estimate,
        antihermitian_residue=result.antihermitian_residue,
    )
    return 0, payload, row, [row.values()]


def cmd_verify(args) -> tuple:
    moduli, _ = _resolve_moduli(args)
    n, samples, seed = args.n, args.samples, args.seed
    if samples < _MOMENT_MIN_SAMPLES:
        raise DomainError(
            f"verify needs at least {_MOMENT_MIN_SAMPLES} samples for its Weingarten moment checks, got {samples}"
        )
    run = argparse.Namespace(n=n, mu=moduli.mu, moduli=moduli, samples=samples, state=_seeded_ball_state(n, seed + 11),
                             a=seeded_hermitian(n, seed + 102), b=seeded_hermitian(n, seed + 103))
    records = [_record(name, run, seed + offset) for name, (offset, _, _) in _CHECKS.items()]
    all_pass = all(r["pass"] for r in records)
    payload = {
        "n": n,
        "moduli": moduli.mu,
        "samples": samples,
        "seed": seed,
        "checks": records,
        "all_pass": all_pass,
    }
    return 0 if all_pass else 1, payload, *_table({"moduli": "mu"}, *records)


# --------------------------------------------------------------------------
# parser


#: Argument groups of the subcommands: each a list of (flag, `add_argument` keywords).
_ARGUMENTS = {
    "n": [("--n", dict(type=int, required=True, help="Hilbert-space dimension N >= 2"))],
    "kernel": [
        ("--nu", dict(type=float, help="qutrit family parameter in [-1, -1/3] (n=3 only)")),
        ("--mu", dict(help="comma-separated unit moduli vector of length N-1")),
    ],
    "mc": [
        ("--samples", dict(type=int, default=100_000, help="Monte Carlo sample count")),
        ("--seed", dict(type=int, default=0, help="master seed of the substream scheme")),
    ],
    "state": [
        ("--state", dict(help="comma-separated Bloch vector")),
        ("--state-file", dict(help="JSON state file {n, bloch}")),
    ],
    "output": [
        ("--output", dict(default="-", help="output file path, or - for stdout")),
        ("--format", dict(choices=("json", "csv"), default="json")),
    ],
    "grid": [("--grid", dict(action="append", metavar="angle=start:stop:count",
                             help="inclusive grid for one chart angle; may repeat, omitted angles stay at 0"))],
}


class _Parser(argparse.ArgumentParser):  # its subparsers are _Parser too
    def error(self, message: str):  # as for every other refused input: one `error: ` line on stderr, exit code 2
        print("error:", *message.splitlines(), file=sys.stderr)  # an unrecognized argument may hold a newline
        raise SystemExit(2)


@functools.lru_cache(maxsize=1)
def _build_parser() -> argparse.ArgumentParser:
    parser = _Parser(prog="swphase", description="Stratonovich-Weyl kernels and Wigner functions for N-level systems.")
    sub = parser.add_subparsers(dest="command", required=True)
    # name, help, argument groups; no handler, as `main` looks cmd_<name> up per call, so a replaced one runs
    commands = [
        ("spectrum", "kernel spectrum descriptor", ("n", "kernel", "output")),
        ("moduli-sample", "fundamental-domain fraction of the moduli sphere", ("n", "mc", "output")),
        ("wigner-eval", "Wigner values on an angle grid", ("n", "kernel", "state", "output", "grid")),
        ("reconstruct", "Monte Carlo state reconstruction", ("n", "kernel", "mc", "state", "output")),
        ("verify", "full postulate verification suite", ("n", "kernel", "mc", "output")),
    ]
    for name, text, groups in commands:
        sp = sub.add_parser(name, help=text)
        for flag, options in (a for group in groups for a in _ARGUMENTS[group]):
            sp.add_argument(flag, **options)
    return parser


def main(argv: Sequence[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        code, payload, header, rows = globals()["cmd_" + args.command.replace("-", "_")](args)
        _emit(args, payload, header, rows)
    except BrokenPipeError:  # the reader left early, as `| head` does: the command itself succeeded
        if args.output == "-":
            sys.stdout = None  # so that the flush at interpreter exit has no closed pipe to write to
    except (SWPhaseError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return code


if __name__ == "__main__":
    sys.exit(main())
