"""Command-line interface: contracts, exit codes, determinism, and format parity."""
import contextlib
import csv
import io
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import swphase.cli
import swphase.wigner
from swphase import (
    EulerSU2,
    EulerSU3,
    assemble_kernel,
    chart_wf,
    gell_mann_basis,
    kernel_chart,
    moduli_point,
    qutrit_mu,
    rho_from_bloch,
    state_as_dict,
    su2_coset,
    su3_from_euler,
    wigner_value,
)
from swphase.cli import _BLOCK_ROWS, _render_csv, _render_json, main

DEMOS = pathlib.Path(__file__).resolve().parents[1] / "demos"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_spectrum_qubit(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "2")
    assert code == 0
    payload = json.loads(out)
    sq3 = math.sqrt(3.0)
    np.testing.assert_allclose(payload["spectrum"], [(1 + sq3) / 2, (1 - sq3) / 2], atol=1e-14)
    assert payload["multiplicities"] == [1, 1]
    assert payload["flag_dim"] == 2
    assert payload["nu"] is None


def test_spectrum_degenerate_decimal_nu(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "3", "--nu", "-0.3333333333")
    assert code == 0
    payload = json.loads(out)
    np.testing.assert_allclose(payload["spectrum"], [5 / 3, -1 / 3, -1 / 3], atol=1e-9)
    assert payload["multiplicities"] == [1, 2]
    assert payload["flag_dim"] == 4
    assert payload["degenerate"] is True
    assert payload["det_invariant"] == pytest.approx(-16 / 27, abs=1e-9)


def test_spectrum_rejects_bad_nu(capsys):
    code, _, err = run(capsys, "spectrum", "--n", "3", "--nu", "0.5")
    assert code == 2
    assert "nu outside [-1, -1/3]" in err


def test_spectrum_master_residuals(capsys):
    code, out, _ = run(capsys, "spectrum", "--n", "4", "--mu", "0.5,0.5,0.7071067811865476")
    assert code == 0
    payload = json.loads(out)
    assert payload["trace_residual"] < 1e-12
    assert payload["purity_residual"] < 1e-12
    assert len(payload["spectrum"]) == 4


def test_kernel_flag_conflicts(capsys):
    code, _, err = run(capsys, "spectrum", "--n", "3", "--nu", "-0.5", "--mu", "0.0,1.0")
    assert code == 2 and "not both" in err
    code, _, err = run(capsys, "spectrum", "--n", "2", "--nu", "-0.5")
    assert code == 2 and "--n 3" in err
    code, _, err = run(capsys, "spectrum", "--n", "4")
    assert code == 2 and "--mu" in err
    code, _, err = run(capsys, "spectrum", "--n", "3", "--mu", "0.9,0.9")
    assert code == 2
    code, _, err = run(capsys, "spectrum", "--n", "3", "--mu", "nan,1")
    assert code == 2 and "finite" in err


def test_moduli_sample_qubit_exact(capsys):
    code, out, _ = run(capsys, "moduli-sample", "--n", "2", "--samples", "5000")
    assert code == 0
    payload = json.loads(out)
    assert payload["check"] == "moduli_fraction"
    assert payload["mc"] == 0.5
    assert payload["z"] == 0.0
    assert payload["pass"] is True
    assert set(payload) == {
        "check", "n", "moduli", "samples", "seed", "mc", "target", "sigma", "z", "pass",
    }


def test_moduli_sample_n3(capsys):
    code, out, _ = run(capsys, "moduli-sample", "--n", "3", "--samples", "50000", "--seed", "3")
    assert code == 0
    payload = json.loads(out)
    assert payload["target"] == pytest.approx(1 / 6)
    assert abs(payload["mc"] - 1 / 6) < 5 * payload["sigma"]


@pytest.mark.parametrize("samples", ["0", "-5", "999"])
@pytest.mark.parametrize("n", ["2", "3"])
def test_moduli_sample_rejects_too_few_samples(capsys, n, samples):
    # N=2 returns 1/2 without drawing, but the sample count is still checked
    code, out, err = run(capsys, "moduli-sample", "--n", n, "--samples", samples)
    assert code == 2 and out == "" and "at least 1000" in err


def test_wigner_eval_qubit_grid_ends(capsys):
    code, out, _ = run(
        capsys,
        "wigner-eval", "--n", "2", "--state", "0,0,1",
        "--grid", f"beta=0:{math.pi}:21",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["columns"] == ["alpha", "beta", "w"]
    assert len(payload["rows"]) == 21
    sq3 = math.sqrt(3.0)
    assert payload["rows"][0][-1] == pytest.approx((1 + sq3) / 2, abs=1e-12)
    assert payload["rows"][-1][-1] == pytest.approx((1 - sq3) / 2, abs=1e-12)


def test_wigner_eval_reduced_chart_columns(capsys):
    code, out, _ = run(
        capsys,
        "wigner-eval", "--n", "3", "--nu", "-1", "--state", "0,0,0,0,0,0,0,-0.5",
        "--grid", "alpha=0:6.28:3", "--grid", "theta=0:1.57:3",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chart"] == "reduced"
    assert payload["columns"] == ["alpha", "beta", "gamma", "theta", "w"]
    assert len(payload["columns"]) == 5
    assert len(payload["rows"]) == 9


def test_wigner_eval_flat_for_mixed_state(capsys):
    code, out, _ = run(
        capsys,
        "wigner-eval", "--n", "3", "--nu", "-0.5", "--state", "0,0,0,0,0,0,0,0",
        "--grid", "b=0:3.14:4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chart"] == "standard"
    assert all(row[-1] == pytest.approx(1 / 3, abs=1e-15) for row in payload["rows"])


def test_wigner_eval_adapted_chart(capsys):
    code, out, _ = run(
        capsys,
        "wigner-eval", "--n", "3", "--nu", "-0.3333333333", "--state", "0,0,0,0,0,0,0,-0.5",
        "--grid", "theta=0:1.5:4",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["chart"] == "adapted"
    assert payload["columns"] == ["alpha", "beta", "gamma", "theta", "w"]


def test_wigner_eval_rejects_bad_inputs(capsys):
    code, _, err = run(capsys, "wigner-eval", "--n", "2", "--state", "0,0,2")
    assert code == 2 and "non-positive" in err
    code, _, err = run(
        capsys, "wigner-eval", "--n", "2", "--state", "0,0,1", "--grid", "zeta=0:1:5"
    )
    assert code == 2 and "zeta" in err
    code, out, err = run(
        capsys, "wigner-eval", "--n", "2", "--state", "0,0,1", "--grid", "beta=0:1:2", "--grid", "beta=0:2:3"
    )
    assert code == 2 and out == "" and "'beta'" in err
    code, _, err = run(
        capsys, "wigner-eval", "--n", "2", "--state", "0,0,1", "--grid", "beta=0:1"
    )
    assert code == 2
    code, _, err = run(capsys, "wigner-eval", "--n", "4", "--mu", "0,0,1", "--state", "x")
    assert code == 2
    code, _, err = run(capsys, "wigner-eval", "--n", "2", "--state", "0,0,nan")
    assert code == 2 and "finite" in err
    code, _, err = run(capsys, "wigner-eval", "--n", "3", "--nu", "-0.5", "--state", "0,0,0,0,0,0,0,nan")
    assert code == 2 and "finite" in err
    for stop in ("inf", "nan"):
        code, _, err = run(
            capsys, "wigner-eval", "--n", "2", "--state", "0,0,1", "--grid", f"beta=0:{stop}:3"
        )
        assert code == 2 and "non-finite" in err
    # rejected from the counts, before any grid array is allocated
    code, _, err = run(
        capsys, "wigner-eval", "--n", "2", "--state", "0,0,1",
        "--grid", "alpha=0:1:100000", "--grid", "beta=0:1:100000",
    )
    assert code == 2 and "10000000000 points" in err


def test_wigner_eval_builds_its_state_once(monkeypatch, capsys):
    # the state from --state is checked in the CLI; chart_wf takes it as built
    calls = []

    def counted(n, xi):
        calls.append(n)
        return rho_from_bloch(n, xi)

    for module in (swphase.cli, swphase.wigner):
        monkeypatch.setattr(module, "rho_from_bloch", counted)
    code, _, _ = run(capsys, "wigner-eval", "--n", "3", "--nu=-0.5", "--state", "0,0,0,0,0,0,0,0.3", "--grid", "b=0:1:3")
    assert code == 0 and calls == [3]


def test_wigner_eval_rejects_overflowing_span(capsys):
    # stop - start overflows to inf; rejected before linspace, which would warn twice on stderr
    grid = ["--n", "2", "--state", "0.1,0,0", "--grid"]
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        code, out, err = run(capsys, "wigner-eval", *grid, "alpha=-1e308:1e308:3")
    assert code == 2 and out == "" and not caught
    assert err.startswith("error: ") and err.count("\n") == 1 and "span" in err
    # one point needs no span: huge end points stay valid there, though off the chart ranges
    with pytest.warns(UserWarning, match="outside the chart ranges") as caught:
        assert run(capsys, "wigner-eval", *grid, "alpha=-1e308:1e308:1")[0] == 0
    assert not [w for w in caught if issubclass(w.category, RuntimeWarning)]


XI3 = [0.1, -0.05, 0.2, 0.03, -0.1, 0.07, 0.02, -0.15]
CHART_ANGLES = {
    "qubit": ["alpha", "beta"],
    "standard": ["alpha", "beta", "gamma", "a", "b", "theta"],
    "reduced": ["alpha", "beta", "gamma", "theta"],
    "adapted": ["alpha", "beta", "gamma", "theta"],
}
SWAP13 = np.array([[0.0, 0.0, 1.0], [0.0, 1.0, 0.0], [1.0, 0.0, 0.0]])


def chart_unitary(chart, point):
    """The phase-space point of a chart, built from the chart maps of `group`."""
    if chart == "qubit":
        return su2_coset(EulerSU2(**point)).u
    if chart == "adapted":
        # the adapted chart at w is the level-1/3 swap conjugate of the standard chart at -w
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            u = su3_from_euler(EulerSU3(**{k: -v for k, v in point.items()}), gell_mann_basis(3)).u
        return SWAP13 @ u @ SWAP13
    return su3_from_euler(EulerSU3(**point), gell_mann_basis(3)).u


@pytest.mark.parametrize(
    "kernel, chart",
    [
        (["--nu", "-1"], "reduced"),
        (["--mu", "0,1"], "reduced"),
        (["--nu", "-0.3333333333"], "adapted"),
        (["--mu", "0.8660254037844386,0.5"], "adapted"),
        (["--nu", "-0.5"], "standard"),
        (["--mu", "0.6,-0.8"], "standard"),
        (["--mu", "0,-1"], "standard"),  # degenerate, but in levels 1-2
        (["--mu", "1"], "qubit"),
        (["--mu", "-1"], "qubit"),
    ],
)
def test_wigner_eval_routes_match_trace_form(capsys, kernel, chart):
    n = 2 if chart == "qubit" else 3
    xi = [0.3, -0.2, 0.5] if n == 2 else XI3
    if kernel[0] == "--nu":
        moduli = qutrit_mu(float(kernel[1]))
    else:
        moduli = moduli_point(n, [float(x) for x in kernel[1].split(",")])
    state = rho_from_bloch(n, np.array(xi))
    base = ["wigner-eval", "--n", str(n), *kernel, "--state", ",".join(map(str, xi))]
    grid = ["--grid", "alpha=0.3:5.9:3", "--grid", "beta=0.2:3:3"]
    if n == 3:
        grid += ["--grid", "gamma=0.5:11:2", "--grid", "theta=0.1:1.5:3"]
    code, out, _ = run(capsys, *base, *grid)
    assert code == 0
    payload = json.loads(out)
    angles = CHART_ANGLES[chart]
    assert payload["chart"] == chart
    assert payload["columns"] == [*angles, "w"]
    assert len(payload["rows"]) == (9 if n == 2 else 54)
    basis = gell_mann_basis(n)
    for row in payload["rows"]:
        u = chart_unitary(chart, dict(zip(angles, row[:-1])))
        assert row[-1] == pytest.approx(wigner_value(state, assemble_kernel(moduli, u, basis)), abs=1e-12)

    # an out-of-range grid warns once for the whole grid
    with pytest.warns(UserWarning) as record:
        code, _, _ = run(capsys, *base, "--grid", "beta=3.2:4:5")
    assert code == 0
    assert len(record) == 1
    assert ("qubit chart" if n == 2 else "beta") in str(record[0].message)


def test_seed_out_of_range(capsys):
    for n in ("2", "3"):
        # N=2 returns 1/2 without drawing, but the seed is still checked
        code, _, err = run(capsys, "moduli-sample", "--n", n, "--seed", "-5")
        assert code == 2 and "seed" in err
    # verify draws from seed+1 .. seed+103; every one of them must be valid
    code, _, err = run(capsys, "verify", "--n", "2", "--samples", "10000", "--seed", "-20")
    assert code == 2 and "seed" in err


@pytest.mark.parametrize(
    "argv",
    [
        ["moduli-sample", "--n", "100000", "--samples", "1000"],
        ["verify", "--n", "100000", "--mu=" + ",".join(["1"] + ["0"] * 99998)],
    ],
    ids=["moduli-sample", "verify"],
)
def test_dimension_too_large_for_its_basis(capsys, argv):
    # numpy refuses the (N**2 - 1, N, N) basis array at this N before allocating it; verify
    # builds the basis before it draws its N**2 - 1 state normals
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: N=100000 is too large for its Gell-Mann basis") and err.count("\n") == 1


def test_dimension_too_large_when_its_basis_is_allocated(capsys):
    # 16 (N**2 - 1) N**2 bytes fit np.intp at N=5000, so it is the allocation of the 8.9 PiB generator
    # array that fails, when verify first reads it; its Cartan diagonals, 200 MB here, are never built
    argv = ["verify", "--n", "5000", "--mu=" + ",".join(["1"] + ["0"] * 4998), "--samples", "10000"]
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: N=5000 is too large for its Gell-Mann basis") and err.count("\n") == 1


def test_wigner_eval_state_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n": 2, "bloch": [0.0, 0.0, 1.0]}))
    code, out, _ = run(capsys, "wigner-eval", "--n", "2", "--state-file", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0][-1] == pytest.approx((1 + math.sqrt(3)) / 2, abs=1e-12)
    code, _, err = run(capsys, "wigner-eval", "--n", "3", "--nu", "-0.5", "--state-file", str(path))
    assert code == 2 and "n=2" in err
    # a truncated file and one that is not UTF-8 text are usage errors, not tracebacks
    for content in (b'{"n": 2, "bloch": [0.0, ', b"\xff\xfe{}"):
        path.write_bytes(content)
        code, out, err = run(capsys, "wigner-eval", "--n", "2", "--state-file", str(path))
        assert code == 2 and out == "" and "state file" in err


def test_reconstruct_roundtrip(capsys):
    code, out, _ = run(
        capsys,
        "reconstruct", "--n", "3", "--nu", "-0.5", "--state", "0,0,0,0,0,0,0,0",
        "--samples", "10000", "--seed", "5",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["frobenius_error"] < 5e-2
    rho = np.array(payload["rho_hat_re"]) + 1j * np.array(payload["rho_hat_im"])
    assert np.linalg.norm(rho - np.eye(3) / 3) == pytest.approx(payload["frobenius_error"], abs=1e-15)
    assert payload["antihermitian_residue"] < 1e-15


def test_reconstruct_guards(capsys):
    code, _, err = run(
        capsys, "reconstruct", "--n", "2", "--state", "0,0,1", "--samples", "0"
    )
    assert code == 2 and "samples" in err
    code, _, err = run(capsys, "reconstruct", "--n", "2", "--samples", "5000")
    assert code == 2 and "--state" in err


def test_verify_all_pass(capsys):
    code, out, _ = run(capsys, "verify", "--n", "2", "--samples", "20000")
    assert code == 0
    payload = json.loads(out)
    assert payload["all_pass"] is True
    checks = [r["check"] for r in payload["checks"]]
    assert checks == [
        "covariance", "norm", "standardisation", "traciality",
        "weingarten2", "weingarten4", "moduli_fraction", "reconstruction",
    ]
    for record in payload["checks"]:
        assert set(record) == {
            "check", "n", "moduli", "samples", "seed", "mc", "target", "sigma", "z", "pass",
        }
        assert record["pass"] is True


def test_verify_fails_on_noncovariant_kernel(monkeypatch, capsys):
    import swphase.wigner

    original = swphase.wigner.assemble_kernel
    monkeypatch.setattr(
        swphase.wigner, "assemble_kernel", lambda p, u, basis: original(p, np.asarray(u).conj().T, basis)
    )
    code, out, _ = run(capsys, "verify", "--n", "3", "--nu=-0.5", "--samples", "20000", "--seed", "7")
    assert code == 1
    covariance = json.loads(out)["checks"][0]
    assert covariance["check"] == "covariance" and covariance["pass"] is False


def test_verify_fails_on_broken_purity(monkeypatch, capsys):
    # the traceless part scaled by 1.25 keeps tr(Delta) = 1 but breaks tr(Delta^2) = N
    import swphase.wigner

    original = swphase.wigner.kernel_diagonal
    monkeypatch.setattr(
        swphase.wigner, "kernel_diagonal", lambda p, basis: 1 / p.dim_n + 1.25 * (original(p, basis) - 1 / p.dim_n)
    )
    code, out, _ = run(capsys, "verify", "--n", "3", "--nu=-0.5", "--samples", "20000", "--seed", "7")
    assert code == 1
    failed = {r["check"] for r in json.loads(out)["checks"] if not r["pass"]}
    assert {"traciality", "reconstruction"} <= failed


def test_verify_rejects_too_few_samples_before_any_check(monkeypatch, capsys):
    import swphase.cli

    monkeypatch.setattr(swphase.cli, "check_covariance", lambda *args: pytest.fail("a check ran"))
    code, _, err = run(capsys, "verify", "--n", "3", "--nu=-0.5", "--samples", "5000")
    assert code == 2 and "verify needs at least 10000 samples" in err and "Weingarten" in err


def test_verify_runs_its_table_of_checks_on_distinct_substreams(monkeypatch, capsys):
    # the table's rows are the checks of a run, in order, and the mutation matrix's check names; every substream a
    # run draws from (each call below takes its seed last) lies in seed + 1 .. seed + 103, and no two draws share one
    from test_verify_mutations import CHECKS

    seed, seeds = 5, []
    for name in ("_seeded_ball_state", "seeded_hermitian", "haar_sample", "check_norm", "check_standardisation",
                 "check_traciality", "weingarten2_check", "weingarten4_check", "moduli_domain_fraction",
                 "reconstruct_state"):
        original = getattr(swphase.cli, name)
        monkeypatch.setattr(swphase.cli, name, lambda *args, _f=original: seeds.append(args[-1] - seed) or _f(*args))
    code, out, _ = run(capsys, "verify", "--n", "2", "--samples", "10000", "--seed", str(seed))
    records = json.loads(out)["checks"]
    assert code == 0 and [r["check"] for r in records] == list(swphase.cli._CHECKS)
    assert set(swphase.cli._CHECKS) == CHECKS
    offsets = [offset for offset, _, _ in swphase.cli._CHECKS.values()]
    assert [r["seed"] - seed for r in records] == offsets
    # the state at +11, covariance's second sample at +13 and the Hermitian pair at +102 and +103
    assert set(seeds) == {11, 13, 102, 103, *offsets}
    assert len(set(seeds)) == len(seeds) and 1 <= min(seeds) and max(seeds) <= 103


def test_verify_csv_parity(tmp_path, capsys):
    json_path = tmp_path / "report.json"
    csv_path = tmp_path / "report.csv"
    args = ["verify", "--n", "3", "--nu", "-0.8", "--samples", "20000", "--seed", "12"]
    assert main(args + ["--output", str(json_path)]) == 0
    assert main(args + ["--output", str(csv_path), "--format", "csv"]) == 0
    capsys.readouterr()
    payload = json.loads(json_path.read_text())
    with open(csv_path, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(payload["checks"])
    for record, row in zip(payload["checks"], rows):
        assert row["check"] == record["check"]
        for key in ("mc", "target", "sigma", "z"):
            assert float(row[key]) == record[key]  # identical parsed values
        assert row["pass"] == ("1" if record["pass"] else "0")
        assert [float(row["mu_1"]), float(row["mu_2"])] == record["moduli"]


def vector(name, values):
    return {f"{name}_{i}": v for i, v in enumerate(values, 1)}


def matrix(name, rows):
    return {f"{name}_{i}{j}": v for i, row in enumerate(rows, 1) for j, v in enumerate(row, 1)}


def spectrum_row(p):
    return [{
        "n": p["n"], **vector("mu", p["mu"]), **({} if p["nu"] is None else {"nu": p["nu"]}),
        **vector("spectrum", p["spectrum"]), **vector("multiplicity", p["multiplicities"]),
        "flag_dim": p["flag_dim"], "degenerate": p["degenerate"],
        **({} if p["det_invariant"] is None else {"det_invariant": p["det_invariant"]}),
        "trace_residual": p["trace_residual"], "purity_residual": p["purity_residual"],
    }]


SPECTRUM_TAIL = ["flag_dim", "degenerate", "trace_residual", "purity_residual"]
# argv, the exact CSV header, and the CSV rows as column -> JSON value
CSV_CASES = {
    "spectrum n=2": (
        ["spectrum", "--n", "2"],
        ["n", "mu_1", "spectrum_1", "spectrum_2", "multiplicity_1", "multiplicity_2", *SPECTRUM_TAIL],
        spectrum_row,
    ),
    "spectrum nu": (
        ["spectrum", "--n", "3", "--nu", "-0.5"],
        ["n", "mu_1", "mu_2", "nu", "spectrum_1", "spectrum_2", "spectrum_3", "multiplicity_1", "multiplicity_2",
         "multiplicity_3", "flag_dim", "degenerate", "det_invariant", "trace_residual", "purity_residual"],
        spectrum_row,
    ),
    "spectrum degenerate nu": (
        ["spectrum", "--n", "3", "--nu", "-0.3333333333"],
        ["n", "mu_1", "mu_2", "nu", "spectrum_1", "spectrum_2", "spectrum_3", "multiplicity_1", "multiplicity_2",
         "flag_dim", "degenerate", "det_invariant", "trace_residual", "purity_residual"],
        spectrum_row,
    ),
    "spectrum mu": (
        ["spectrum", "--n", "3", "--mu", "0.6,0.8"],
        ["n", "mu_1", "mu_2", "spectrum_1", "spectrum_2", "spectrum_3", "multiplicity_1", "multiplicity_2",
         "multiplicity_3", "flag_dim", "degenerate", "det_invariant", "trace_residual", "purity_residual"],
        spectrum_row,
    ),
    "spectrum n=4": (
        ["spectrum", "--n", "4", "--mu", "0.5,0.5,0.7071067811865476"],
        ["n", "mu_1", "mu_2", "mu_3", "spectrum_1", "spectrum_2", "spectrum_3", "spectrum_4", "multiplicity_1",
         "multiplicity_2", "multiplicity_3", "multiplicity_4", *SPECTRUM_TAIL],
        spectrum_row,
    ),
    "moduli-sample": (
        ["moduli-sample", "--n", "3", "--samples", "5000", "--seed", "3"],
        ["check", "n", "samples", "seed", "mc", "target", "sigma", "z", "pass"],
        lambda p: [{k: v for k, v in p.items() if k != "moduli"}],
    ),
    "reconstruct": (
        ["reconstruct", "--n", "2", "--state", "0.1,0.2,0.3", "--samples", "5000", "--seed", "4"],
        ["n", "samples", "seed", "mu_1", "rho_re_11", "rho_re_12", "rho_re_21", "rho_re_22", "rho_im_11",
         "rho_im_12", "rho_im_21", "rho_im_22", "frobenius_error", "frobenius_error_estimate",
         "antihermitian_residue"],
        lambda p: [{
            "n": p["n"], "samples": p["samples"], "seed": p["seed"], **vector("mu", p["mu"]),
            **matrix("rho_re", p["rho_hat_re"]), **matrix("rho_im", p["rho_hat_im"]),
            "frobenius_error": p["frobenius_error"], "frobenius_error_estimate": p["frobenius_error_estimate"],
            "antihermitian_residue": p["antihermitian_residue"],
        }],
    ),
    "wigner-eval": (
        ["wigner-eval", "--n", "3", "--nu", "-1", "--state", ",".join(map(str, XI3)),
         "--grid", "alpha=0:6:3", "--grid", "theta=0.1:1.5:2"],
        ["alpha", "beta", "gamma", "theta", "w"],
        lambda p: [dict(zip(p["columns"], row)) for row in p["rows"]],
    ),
}


def same_value(cell, value):
    if isinstance(value, bool):
        return cell == ("1" if value else "0")
    if isinstance(value, (int, str)):
        return cell == str(value)
    return float(cell) == value or (math.isnan(value) and math.isnan(float(cell)))


@pytest.mark.parametrize("case", list(CSV_CASES))
def test_csv_parity(tmp_path, capsys, case):
    argv, header, expected_rows = CSV_CASES[case]
    json_path, csv_path = tmp_path / "out.json", tmp_path / "out.csv"
    assert main(argv + ["--output", str(json_path)]) == 0
    assert main(argv + ["--output", str(csv_path), "--format", "csv"]) == 0
    capsys.readouterr()
    with open(csv_path, newline="") as fh:
        lines = list(csv.reader(fh))
    assert lines[0] == header
    expected = expected_rows(json.loads(json_path.read_text()))
    assert len(lines) - 1 == len(expected)
    for cells, row in zip(lines[1:], expected):
        assert list(row) == header
        assert all(same_value(cell, row[name]) for cell, name in zip(cells, header)), (cells, row)


def test_scalar_spellings():
    json_cases = [
        (math.nan, "NaN"), (math.inf, "Infinity"), (-math.inf, "-Infinity"), (-0.0, "-0"),
        (np.float32(0.1), "0.10000000149011612"), (0.1, "0.10000000000000001"), (np.int64(-7), "-7"),
        (2**70, "1180591620717411303424"), (True, "true"), (False, "false"), (None, "null"),
        ('say "hi"', '"say \\"hi\\""'), ([], "[]"), ({}, "{}"), ((), "[]"),
        ([1, 2.5, None, True, "a"], '[1, 2.5, null, true, "a"]'),
        ([[1, 2], [], [3.0]], "[\n  [1, 2],\n  [],\n  [3]\n]"),
        (
            {"a": [1], "b": {}, "c": [{"d": math.nan}]},
            '{\n  "a": [1],\n  "b": {},\n  "c": [\n    {\n      "d": NaN\n    }\n  ]\n}',
        ),
    ]
    for value, text in json_cases:
        assert _render_json(value) == text, value
    csv_cases = [
        (math.nan, "nan"), (math.inf, "inf"), (-math.inf, "-inf"), (-0.0, "-0"),
        (np.float32(0.1), "0.10000000149011612"), (np.int64(-7), "-7"), (True, "1"), (False, "0"), (None, ""),
        ('say "hi"', 'say "hi"'),
    ]
    for value, text in csv_cases:
        assert _render_csv(["x"], [[value]]) == "x\n" + text, value
    assert _render_csv(["a", "b"], []) == "a,b"
    assert _render_csv(["a", "b", "c", "d"], [[1, 2.5, None, True]]) == "a,b,c,d\n1,2.5,,1"
    assert _render_csv(["a", "b"], [[1, 2], [3.0, -0.5]]) == "a,b\n1,2\n3,-0.5"


def test_non_finite_array_block_spellings():
    table = np.array([[math.nan, math.inf], [-math.inf, 1.5]])
    assert _render_json(table) == "[\n  [NaN, Infinity],\n  [-Infinity, 1.5]\n]"
    assert _render_csv(["a", "b"], table) == "a,b\nnan,inf\n-inf,1.5"
    # a finite first block takes the template, the second falls back to the spelling tables
    table = np.linspace(-1.0, 1.0, 2 * (_BLOCK_ROWS + 1)).reshape(-1, 2)
    table[-1, 0] = math.nan
    assert _render_json({"rows": table}) == _render_json({"rows": table.tolist()})
    assert _render_csv(["a", "b"], table) == _render_csv(["a", "b"], table.tolist())


def test_array_blocks_spell_each_distinct_value_as_lists_do():
    # both zeros in every block (equal as floats, apart by bits), repeats, the smallest subnormal and huge values
    values = [0.0, -0.0, 0.1, 5e-324, -5e-324, 1e300, -1e300, 0.1, 1.0 / 3.0, -0.0, 2.5]
    table = np.resize(values, 3 * (_BLOCK_ROWS + 7)).reshape(-1, 3)
    assert _render_json({"rows": table}) == _render_json({"rows": table.tolist()})
    assert _render_csv(["a", "b", "c"], table) == _render_csv(["a", "b", "c"], table.tolist())
    # integer tables spell exact integers, float32 tables their values as float64
    assert _render_csv(["a", "b", "c"], np.arange(6).reshape(2, 3)) == "a,b,c\n0,1,2\n3,4,5"
    assert _render_json(np.arange(6).reshape(2, 3)) == "[\n  [0, 1, 2],\n  [3, 4, 5]\n]"
    single = np.array([[0.1, -0.0, 3e38], [1e-45, 2.5, -7.0]], dtype=np.float32)
    text = "0.10000000149011612, -0, 3.0000000054977558e+38],\n  [1.4012984643248171e-45, 2.5, -7"
    assert _render_json(single) == "[\n  [" + text + "]\n]"
    assert _render_csv(["a", "b", "c"], single) == "a,b,c\n" + text.replace(", ", ",").replace("],\n  [", "\n")


def test_integer_array_blocks_spell_exact_integers():
    # 2**62 has no exact 17-digit spelling as a float: an integer block is spelled cell by cell, as its list is
    table = np.array([[2**62, -3]])
    assert _render_csv(["a", "b"], table) == _render_csv(["a", "b"], table.tolist()) == "a,b\n4611686018427387904,-3"
    assert _render_json({"rows": table}) == _render_json({"rows": table.tolist()})
    assert _render_json(table) == "[\n  [4611686018427387904, -3]\n]"


@pytest.mark.parametrize("size", [1, _BLOCK_ROWS - 1, _BLOCK_ROWS, _BLOCK_ROWS + 1, 2 * _BLOCK_ROWS + 3])
@pytest.mark.parametrize(
    "kernel, bloch, columns",
    [([], [0.3, -0.2, 0.5], CHART_ANGLES["qubit"]), (["--nu=-0.5"], XI3, CHART_ANGLES["standard"])],
)
def test_wigner_eval_blocks_match_generic_renderers(tmp_path, capsys, size, kernel, bloch, columns):
    n = 2 if not kernel else 3
    argv = ["wigner-eval", "--n", str(n), *kernel, "--state", ",".join(map(repr, bloch)),
            "--grid", f"alpha=0.1:6:{size}", "--grid", "beta=0.25:0.25:1"]
    # the rows as the generic renderers take them: lists of floats, built apart from the CLI
    moduli = qutrit_mu(-0.5) if kernel else moduli_point(2, [1.0])
    chart = kernel_chart(moduli)
    alpha = np.linspace(0.1, 6.0, size)
    angles = {name: alpha if name == "alpha" else np.full(size, 0.25 if name == "beta" else 0.0) for name in columns}
    w = chart_wf(np.array(bloch), -0.5 if kernel else moduli, chart, angles)
    rows = np.column_stack([*angles.values(), w]).tolist()
    payload = {
        "n": n, "mu": [float(x) for x in moduli.mu], "nu": -0.5 if kernel else None, "chart": chart.name,
        "state": state_as_dict(rho_from_bloch(n, np.array(bloch))), "columns": [*columns, "w"], "rows": rows,
    }
    expected = {"json": _render_json(payload) + "\n", "csv": _render_csv([*columns, "w"], rows) + "\n"}
    for fmt, text in expected.items():
        path = tmp_path / f"grid.{fmt}"
        assert main([*argv, "--format", fmt, "--output", str(path)]) == 0
        assert path.read_bytes() == text.encode()
        code, out, _ = run(capsys, *argv, "--format", fmt)
        assert code == 0 and out == text


ROUTES = {
    # route: --nu, or --mu
    "qubit": (None, [1.0]),
    "standard-nu": (-0.5, None),
    "standard-mu": (None, [0.6, -0.8]),
    "reduced": (-1.0, None),
    "adapted": (-1.0 / 3.0, None),
}
#: Per angle: start, stop, count on every axis; a single-point axis; and a range that leaves the chart
AXES_GRIDS = {
    "all axes": {"alpha": (0.3, 5.9, 3), "beta": (0.2, 3.0, 4), "gamma": (0.5, 11.0, 2), "a": (0.1, 6.0, 2),
                 "b": (0.4, 2.9, 3), "theta": (0.1, 1.5, 2)},
    "single-point axis": {"alpha": (0.3, 5.9, 4), "beta": (1.1, 1.1, 1), "gamma": (0.5, 11.0, 3), "b": (0.4, 2.9, 2),
                          "theta": (0.1, 1.5, 3)},
    "off the chart": {"alpha": (0.3, 5.9, 2), "beta": (3.2, 4.0, 3), "gamma": (0.5, 11.0, 2), "theta": (0.1, 1.5, 2)},
}


@pytest.mark.parametrize("grid", list(AXES_GRIDS))
@pytest.mark.parametrize("route", list(ROUTES))
def test_wigner_eval_on_axes_matches_dense_meshes(tmp_path, route, grid):
    nu, mu = ROUTES[route]
    moduli = qutrit_mu(nu) if mu is None else moduli_point(len(mu) + 1, mu)
    chart, n = kernel_chart(moduli), moduli.dim_n
    angles = CHART_ANGLES[chart.name]
    bloch = [0.3, -0.2, 0.5] if n == 2 else XI3
    specs = {name: spec for name, spec in AXES_GRIDS[grid].items() if name in angles}
    argv = ["wigner-eval", "--n", str(n), f"--nu={nu!r}" if mu is None else "--mu=" + ",".join(map(repr, mu)),
            "--state", ",".join(map(repr, bloch)),
            *(f"--grid={name}={start!r}:{stop!r}:{count}" for name, (start, stop, count) in specs.items())]
    # the reference, built apart from the CLI: dense meshes of every chart angle, flattened, then the values there
    axes = [np.linspace(*specs[name]) if name in specs else np.zeros(1) for name in angles]
    mesh = [m.ravel() for m in np.meshgrid(*axes, indexing="ij")]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        w = chart_wf(np.array(bloch), moduli if nu is None else nu, chart, dict(zip(angles, mesh)))
    rows = np.column_stack([*mesh, w]).tolist()
    payload = {
        "n": n, "mu": moduli.mu.tolist(), "nu": nu, "chart": chart.name,
        "state": state_as_dict(rho_from_bloch(n, np.array(bloch))), "columns": [*angles, "w"], "rows": rows,
    }
    expected = {"json": _render_json(payload) + "\n", "csv": _render_csv([*angles, "w"], rows) + "\n"}
    for fmt, text in expected.items():
        path = tmp_path / f"grid.{fmt}"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main([*argv, "--format", fmt, "--output", str(path)]) == 0
        assert path.read_bytes() == text.encode()
        # one range warning for the whole grid, and only off the chart
        assert len(caught) == (grid == "off the chart"), [str(c.message) for c in caught]


#: Upper grid ends of the memory tests, inside the chart ranges
GRID_ENDS = {"alpha": 6, "beta": 3, "gamma": 12, "a": 6, "b": 3, "theta": 1.5}


def _peak_rss_mib(tmp_path, *argv: str) -> float:
    """VmHWM of a fresh process that runs the CLI on `argv`, writing to a file; the command must exit 0."""
    # VmHWM, not ru_maxrss: a child's ru_maxrss keeps the RSS of the process that forked it
    code = (
        "import sys\n"
        "from swphase.cli import main\n"
        "code = main(sys.argv[1:])\n"
        "print(next(line.split()[1] for line in open('/proc/self/status') if line.startswith('VmHWM:')))\n"
        "sys.exit(code)\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, "-c", code, *argv, "--output", str(tmp_path / "out")],
        env=env, capture_output=True, text=True, timeout=300,
    )
    assert result.returncode == 0, result.stderr
    return int(result.stdout) / 1024.0


def _wigner_eval_peak_rss_mib(tmp_path, counts: tuple[int, ...], kernel=("--n", "2", "--state", "0.3,-0.2,0.5"),
                              angles=CHART_ANGLES["qubit"]) -> float:
    grid = [f"--grid={name}=0:{GRID_ENDS[name]}:{count}" for name, count in zip(angles, counts)]
    return _peak_rss_mib(tmp_path, "wigner-eval", *kernel, *grid)


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc")
@pytest.mark.parametrize(
    "argv",
    [lambda n: ["spectrum", "--n", str(n), "--mu=" + ",".join(["1"] + ["0"] * (n - 2))],
     lambda n: ["moduli-sample", "--n", str(n), "--samples", "1000"]],
    ids=["spectrum", "moduli-sample"],
)
def test_cartan_only_commands_never_build_the_generators(tmp_path, argv):
    # both read only the N - 1 Cartan diagonals; the (N**2 - 1, N, N) generator array would be 198 MiB
    # at N=60 (spectrum peaked at 226 MiB there when every basis held it, against 30 MiB at N=10)
    assert _peak_rss_mib(tmp_path, *argv(60)) <= 1.1 * _peak_rss_mib(tmp_path, *argv(10))


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc")
def test_wigner_eval_memory_does_not_grow_with_text(tmp_path):
    # the rendered text of 10^5 points is about 7 MB; written in row blocks, it is never held whole
    assert _wigner_eval_peak_rss_mib(tmp_path, (400, 250)) <= _wigner_eval_peak_rss_mib(tmp_path, (10, 10)) + 16.0


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="VmHWM is read from /proc")
def test_wigner_eval_memory_of_the_evaluation(tmp_path):
    # evaluated on the grid's axes, the standard chart's closed forms hold no dense angle meshes:
    # 10^5 points took +12.1 MiB over 64 points that way, and +25.4 MiB on dense meshes
    standard = ("--n", "3", "--nu=-0.5", "--state", ",".join(map(repr, XI3)))
    peak = [_wigner_eval_peak_rss_mib(tmp_path, counts, standard, CHART_ANGLES["standard"])
            for counts in [(2,) * 6, (10, 10, 10, 10, 10, 1)]]
    assert peak[1] <= peak[0] + 18.0


def test_outputs_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--n", "2", "--samples", "10000", "--seed", "9"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_closed_pipe_is_not_an_error():
    # the reader closes its end after one line, as `| head -1` does: no message, and the
    # command's own exit code; the 90,000 rows overflow the pipe, so the write meets the closed end
    argv = ["wigner-eval", "--n", "2", "--state", "0,0,1", "--grid", "alpha=0:1:300", "--grid", "beta=0:1:300",
            "--format", "csv"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    proc = subprocess.Popen([sys.executable, "-m", "swphase.cli", *argv], env=env,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    assert proc.stdout.readline() == b"alpha,beta,w\n"
    proc.stdout.close()
    _, err = proc.communicate(timeout=120)
    assert (proc.returncode, err) == (0, b"")


def test_commands_without_sampling_skip_scipy_special():
    # scipy.special is needed only to draw normals and concurrent.futures only to
    # draw Haar batches on several CPUs; a fresh process shows what was imported
    code = (
        "import sys, swphase, swphase.cli\n"
        "assert swphase.cli.main(['spectrum', '--n', '3', '--nu', '-0.5']) == 0\n"
        "assert swphase.cli.main(['wigner-eval', '--n', '2', '--state', '0,0,1']) == 0\n"
        "assert 'scipy.special' not in sys.modules\n"
        "assert 'concurrent.futures' not in sys.modules\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
    assert result.returncode == 0, result.stderr
    # commands that draw normals load scipy's ndtri extension alone, not the package around it; a later
    # import of the package still gives all of it, with the same ndtri
    for first_call in (
        f"swphase.cli.main(['verify', '--n', '2', '--samples', '10000', '--output', {os.devnull!r}]) == 0",
        "swphase.weingarten2_check(2, (1, 1, 1, 1), 10000, 1).closed_form == 0.5",
    ):
        code = (
            "import sys, swphase, swphase.cli\n"
            f"assert {first_call}\n"
            "assert 'scipy.special' not in sys.modules\n"
            "assert 'scipy.special._ufuncs' in sys.modules\n"
            "import scipy.special\n"
            "assert scipy.special.gamma(5.0) == 24.0 and scipy.special.comb(5, 2, exact=True) == 10\n"
            "assert scipy.special.ndtri is swphase._streams._ndtri()\n"
        )
        result = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, (first_call, result.stderr)


@pytest.mark.skipif(not hasattr(os, "sched_setaffinity"), reason="no CPU affinity control")
def test_verify_on_one_cpu_matches_all_cpus():
    # pinned to one CPU before swphase is imported, haar_batch draws on the calling thread alone
    cpu = min(os.sched_getaffinity(0))
    run = (
        "import os, sys\n"
        "if sys.argv[1] == 'pinned':\n"
        f"    os.sched_setaffinity(0, {{{cpu}}})\n"
        "from swphase.cli import main\n"
        "sys.exit(main(sys.argv[2:]))\n"
    )
    verify = ["verify", "--n", "3", "--nu=-0.5", "--samples", "20000", "--seed", "7"]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    pinned, free = (
        subprocess.run([sys.executable, "-c", run, mode, *verify], env=env, capture_output=True, timeout=300)
        for mode in ("pinned", "free")
    )
    assert (pinned.returncode, free.returncode) == (0, 0), pinned.stderr + free.stderr
    assert pinned.stdout == free.stdout


@pytest.mark.parametrize("demo", sorted(p.name for p in DEMOS.glob("*.py")))
def test_demo_runs(demo, tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    result = subprocess.run(
        [sys.executable, str(DEMOS / demo)], cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300
    )
    assert result.returncode == 0, result.stderr


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["spectrum"])  # missing required --n
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == 2


@pytest.mark.parametrize(
    "argv",
    [
        ["spectrum", "--n", "3", "--mu", "0.6,,0.8"],
        ["spectrum", "--n", "3", "--mu", "0.6,0.8,"],
        ["wigner-eval", "--n", "2", "--state", "0.3,,-0.2,0.5"],
        ["wigner-eval", "--n", "2", "--state", "0.3,-0.2,0.5,"],
    ],
    ids=["mu middle", "mu end", "state middle", "state end"],
)
def test_comma_list_rejects_empty_field(capsys, argv):
    # an empty field is not dropped: 0.3,,-0.2,0.5 is not the Bloch vector (0.3, -0.2, 0.5)
    code, out, err = run(capsys, *argv)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and err.count("\n") == 1 and "cannot parse float list" in err


def test_parser_built_once_per_process(monkeypatch, capsys):
    import argparse

    argv = ["wigner-eval", "--n", "2", "--state", "0,0,1", "--grid", "beta=0:1:3"]
    assert main(argv) == 0
    built, construct = [], argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        construct(self, *args, **kwargs)

    # patched on the class, whose __init__ argparse looks up by name, so subparsers count too
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert main(argv) == 0 and main(argv) == 0
    capsys.readouterr()
    assert built == []


def test_handler_replaced_after_first_call_runs(monkeypatch, capsys):
    # the parser is cached, so it must not hold the handlers: a cmd_* replaced later is the one that runs
    import swphase.cli

    argv = ["spectrum", "--n", "3", "--nu=-0.5", "--format", "csv"]
    unwrapped = run(capsys, *argv)
    original, calls = swphase.cli.cmd_spectrum, []

    def wrapper(args):
        calls.append(args.command)
        return original(args)

    monkeypatch.setattr(swphase.cli, "cmd_spectrum", wrapper)
    assert run(capsys, *argv) == unwrapped
    assert calls == ["spectrum"]


#: One field of a comma list or grid spec: finite numbers, non-finite ones, a complex number, a word and nothing.
FIELDS = st.sampled_from(["0", "0.6", "0.8", "1", "-1", "0.1", "nan", "inf", "-inf", "1j", "x", ""])


@st.composite
def argument_lists(draw):
    """Argument lists for commands that run in milliseconds at N <= 3 and 2,000 samples; the integer flags may be
    `x` or `1.5` and `--nu` may be `1j`, values that argparse itself refuses."""
    command = draw(st.sampled_from(["spectrum", "moduli-sample", "wigner-eval", "reconstruct"]))
    n = draw(st.sampled_from([-1, 0, 1, 2, 3, "x", "1.5"] + ([] if command == "reconstruct" else [10**6])))
    argv = [command, "--n", str(n)]
    n = n if isinstance(n, int) else 3  # vectors for a refused --n are drawn as for N = 3

    def fields(right: int, first: str) -> str:  # half the time at N = 2, 3 a valid vector `first,0,...,0`
        if 2 <= n <= 3 and draw(st.booleans()):
            return ",".join([first] + ["0"] * (right - 1))
        length = draw(st.sampled_from([min(max(right, 1), 8), 1, 2, 9]))
        return ",".join(draw(st.lists(FIELDS, min_size=length, max_size=length)))

    if command != "moduli-sample":
        kernel = draw(st.sampled_from(["none", "nu", "mu"]))
        if kernel == "nu":
            argv.append("--nu=" + draw(st.sampled_from(["-0.5", "-1", "-0.3333333333", "0", "nan", "inf", "-inf", "1j"])))
        elif kernel == "mu":
            argv.append("--mu=" + fields(n - 1, "1"))
    if command in ("wigner-eval", "reconstruct"):
        argv.append("--state=" + fields(n * n - 1, "0"))
    if command == "wigner-eval":
        for name in draw(st.lists(st.sampled_from(["alpha", "beta", "gamma", "theta"]), max_size=2)):
            count = draw(st.sampled_from([1, 2, 10]))  # at most 100 points
            start, stop = ("0", "1") if draw(st.booleans()) else (draw(FIELDS), draw(FIELDS))
            argv.append(f"--grid={name}={start}:{stop}:{count}")
    if command in ("moduli-sample", "reconstruct"):
        argv += ["--samples", draw(st.sampled_from(["0", "999", "1000", "2000", "x", "1.5"]))]
        argv += ["--seed", draw(st.sampled_from(["0", "-1", "7", "x", "1.5"]))]
    return argv


@settings(max_examples=150, deadline=2000)
@given(argv=argument_lists())
def test_cli_fuzz_exits_0_1_or_2_with_one_error_line(argv):
    # any argument list ends in an exit code, never a traceback, and a refused one writes nothing to stdout and
    # exactly one line to stderr; argparse's refusals raise SystemExit(2) instead of returning 2
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err), warnings.catch_warnings():
        warnings.simplefilter("ignore")  # angles outside the chart ranges warn and still evaluate
        try:
            code = main(argv)
        except SystemExit as exc:
            assert exc.code == 2
            code = exc.code
    assert code in (0, 1, 2)
    if code == 2:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: ") and err.getvalue().count("\n") == 1
    assert "Traceback" not in err.getvalue()
