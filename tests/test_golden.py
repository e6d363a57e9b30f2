"""Golden corpus: fixed-seed CLI runs against the outputs and exit codes committed in `tests/golden/`.

Two levels of comparison:

* always: the exit code, the text between numbers, and every number to 1e-12
  relative (1e-15 absolute), so a move at round-off fails only the level below;
* when numpy, scipy and `_streams._STREAM_VERSION` match the corpus header:
  the sha256 of the output bytes.  Otherwise that level is skipped, naming
  the mismatch.

A change that moves a number bumps `_STREAM_VERSION` and regenerates the corpus
with `PYTHONPATH=src python tests/test_golden.py`.
"""
import hashlib
import json
import math
import pathlib
import re

import numpy as np
import pytest
import scipy

from swphase._streams import _STREAM_VERSION
from swphase.cli import main

GOLDEN = pathlib.Path(__file__).resolve().parent / "golden"

QUTRIT_STATE = "--state=0.1,-0.05,0.2,0,0.08,0.1,-0.12,0.05"
# name -> argv without --output; a name ending in -csv adds --format csv
RUNS = {
    **{
        f"verify-{config}-seed{seed}": ["verify", "--n", n, *kernel, "--samples", "10000", "--seed", str(seed)]
        for config, n, kernel in [
            ("n2", "2", []),
            ("n3-nu-0.5", "3", ["--nu=-0.5"]),
            ("n3-nu-1", "3", ["--nu=-1"]),
            ("n4", "4", ["--mu=0.6,0,0.8"]),
            ("n6", "6", [f"--mu=0.2,0.4,0.4,0.4,{math.sqrt(0.48)!r}"]),
        ]
        for seed in (0, 7)
    },
    **{
        f"{name}-{fmt}": [*argv, "--format", fmt]
        for name, argv in [
            ("spectrum", ["spectrum", "--n", "3", "--nu=-0.5"]),
            ("moduli-sample", ["moduli-sample", "--n", "3", "--samples", "20000", "--seed", "3"]),
            ("reconstruct", ["reconstruct", "--n", "3", "--nu=-0.5", QUTRIT_STATE, "--samples", "8192", "--seed", "5"]),
            ("wigner-qubit", ["wigner-eval", "--n", "2", "--state=0.3,-0.2,0.5",
                              "--grid", "alpha=0:6.283185307179586:5", "--grid", "beta=0:3.141592653589793:4"]),
            ("wigner-standard-nu", ["wigner-eval", "--n", "3", "--nu=-0.5", QUTRIT_STATE, "--grid", "alpha=0:1:3",
                                    "--grid", "beta=0.2:2:2", "--grid", "a=0.5:4:2", "--grid", "theta=0:1.5:2"]),
            ("wigner-standard-mu", ["wigner-eval", "--n", "3", "--mu=0.6,0.8", QUTRIT_STATE, "--grid", "gamma=0:9:3",
                                    "--grid", "b=0:3:3", "--grid", "theta=0.1:1.2:2"]),
            ("wigner-reduced", ["wigner-eval", "--n", "3", "--nu=-1", QUTRIT_STATE, "--grid", "alpha=0:6:3",
                                "--grid", "beta=0:3:2", "--grid", "gamma=1:12:2", "--grid", "theta=0:1.5:2"]),
            ("wigner-adapted", ["wigner-eval", "--n", "3", f"--nu={-1 / 3!r}", QUTRIT_STATE, "--grid", "alpha=0:6:2",
                                "--grid", "beta=0.1:3:3", "--grid", "gamma=2:8:2", "--grid", "theta=0.2:1.5:2"]),
        ]
        for fmt in ("json", "csv")
    },
}

# a JSON or CSV number, or a non-finite JSON float, captured so that re.split keeps it
_NUMBER = re.compile(r"(-?(?:\d+(?:\.\d*)?(?:[eE][-+]?\d+)?|Infinity)|NaN)")


def _versions() -> dict:
    return {"numpy": np.__version__, "scipy": scipy.__version__, "stream_version": _STREAM_VERSION}


def _corpus() -> dict:
    return json.loads((GOLDEN / "manifest.json").read_text())


def _file(name: str) -> str:
    return f"{name}.{'csv' if name.endswith('-csv') else 'json'}"


def _run(name: str, out: pathlib.Path) -> tuple[int, bytes]:
    path = out / _file(name)
    code = main([*RUNS[name], "--output", str(path)])
    return code, path.read_bytes()


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """Each run's exit code and output bytes, computed once for both levels."""
    out = tmp_path_factory.mktemp("golden")
    return {name: _run(name, out) for name in RUNS}


def test_corpus_holds_every_run():
    assert _corpus()["runs"].keys() == RUNS.keys()


@pytest.mark.parametrize("name", list(RUNS))
def test_golden_output_matches_to_round_off(outputs, name):
    code, data = outputs[name]
    want = _corpus()["runs"][name]
    assert code == want["exit"]
    got = _NUMBER.split(data.decode())
    ref = _NUMBER.split((GOLDEN / _file(name)).read_text())
    assert got[::2] == ref[::2]  # the text between numbers
    moved = [
        (x, y) for x, y in zip(got[1::2], ref[1::2])
        if x != y and not math.isclose(float(x), float(y), rel_tol=1e-12, abs_tol=1e-15)
    ]
    assert not moved, f"{len(moved)} numbers moved beyond round-off, first {moved[0]}"


@pytest.mark.parametrize("name", list(RUNS))
def test_golden_output_matches_byte_for_byte(outputs, name):
    corpus = _corpus()
    here = _versions()
    mismatch = [f"{key} {here[key]} (corpus {corpus[key]})" for key in here if here[key] != corpus[key]]
    if mismatch:
        pytest.skip("byte level needs the corpus versions: " + ", ".join(mismatch))
    assert hashlib.sha256(outputs[name][1]).hexdigest() == corpus["runs"][name]["sha256"]


def regenerate() -> None:
    """Write every run's output into `tests/golden/` and its exit code and sha256 into the manifest."""
    runs = {}
    for name in RUNS:
        code, data = _run(name, GOLDEN)
        runs[name] = {"exit": code, "sha256": hashlib.sha256(data).hexdigest()}
    (GOLDEN / "manifest.json").write_text(json.dumps({**_versions(), "runs": runs}, indent=1) + "\n")


if __name__ == "__main__":
    GOLDEN.mkdir(exist_ok=True)
    regenerate()
