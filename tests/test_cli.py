"""Command-line interface: contracts, exit codes, determinism, and format parity."""
import csv
import json
import math
import os
import pathlib
import subprocess
import sys
import warnings

import numpy as np
import pytest

from swphase import (
    EulerSU2,
    EulerSU3,
    assemble_kernel,
    gell_mann_basis,
    moduli_point,
    qutrit_mu,
    rho_from_bloch,
    su2_coset,
    su3_from_euler,
    wigner_value,
)
from swphase.cli import main

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


def test_wigner_eval_state_file(tmp_path, capsys):
    path = tmp_path / "state.json"
    path.write_text(json.dumps({"n": 2, "bloch": [0.0, 0.0, 1.0]}))
    code, out, _ = run(capsys, "wigner-eval", "--n", "2", "--state-file", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"][0][-1] == pytest.approx((1 + math.sqrt(3)) / 2, abs=1e-12)
    code, _, err = run(capsys, "wigner-eval", "--n", "3", "--nu", "-0.5", "--state-file", str(path))
    assert code == 2 and "n=2" in err


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


def test_outputs_byte_identical(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["verify", "--n", "2", "--samples", "10000", "--seed", "9"]
    assert main(args + ["--output", str(a)]) == 0
    assert main(args + ["--output", str(b)]) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


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
