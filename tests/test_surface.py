"""The public surface: one list of names per module, no unused imports, one way to freeze a record and one to match N.

The package exports the union of its modules' `__all__` lists; this file
pins the names the package has promised so far, checks that every listed
name exists and belongs to one module only, and lints the sources for
top-level imports that nothing uses, for frozen-record fields set outside
`_streams._freeze` and for records' N compared outside `_streams._check_records`.
"""
import ast
import importlib
import pathlib

import pytest

import swphase

SRC = pathlib.Path(swphase.__file__).resolve().parent
MODULES = ["config", "errors", "algebra", "states", "kernel", "group", "wigner", "_streams"]

# swphase.__all__ before the package took its names from the module lists
PROMISED = [
    "TOLERANCES", "Tolerances", "SWPhaseError", "DomainError", "ValidationError", "InvalidStateError",
    "NumericalIntegrityError", "GellMannBasis", "SymmetricStructureTensor", "gell_mann_basis",
    "symmetric_structure_constants", "expand_in_basis", "DensityState", "bloch_scale", "rho_from_bloch",
    "bloch_from_rho", "qutrit_bloch_constraints", "state_as_dict", "state_from_dict", "ModuliPoint",
    "KernelSpectrum", "KernelMatrix", "QUTRIT_NU_MIN", "QUTRIT_NU_MAX", "moduli_point", "spectrum_from_moduli",
    "verify_master", "qutrit_spectrum", "qutrit_mu", "nu_from_zeta", "zeta_from_nu", "qutrit_det_invariant",
    "moduli_canonicalize", "moduli_domain_fraction", "isotropy_signature", "assemble_kernel", "kernel_diagonal",
    "PhasePoint", "EulerSU3", "EulerSU2", "MomentCheck", "haar_sample", "haar_batch", "su3_from_euler",
    "su2_coset", "adjoint_vector", "adjoint_matrix", "n3_closed_form", "n8_closed_form", "nprime_closed_form",
    "ad_t_matrix", "nprime_rotation", "weingarten2_check", "weingarten4_check", "wigner_value",
    "wigner_closed_form", "qubit_wf", "qutrit_wf", "reconstruct_state", "state_wf_sampler",
    "ReconstructionResult", "check_standardisation", "check_traciality", "check_covariance", "check_norm",
    "CheckResult", "NormCheckResult", "seeded_hermitian",
]


def test_promised_names_still_exported():
    missing = [name for name in PROMISED if name not in swphase.__all__ or not hasattr(swphase, name)]
    assert not missing


def test_chart_router_names_exported():
    for name in ("kernel_chart", "chart_wf", "EulerChart", "qubit_frame"):
        assert name in swphase.__all__ and hasattr(swphase, name)


def test_module_lists_resolve_and_do_not_overlap():
    owner = {}
    for module_name in MODULES:
        module = importlib.import_module(f"swphase.{module_name}")
        for name in module.__all__:
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name}"
            assert name not in owner, f"{name} is listed by {owner.get(name)} and {module_name}"
            owner[name] = module_name
    assert len(swphase.__all__) == len(set(swphase.__all__))
    assert set(swphase.__all__) <= set(owner)


def _unused_imports(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text())
    bound = {}
    listed = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                if alias.name != "*":
                    bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            listed = {elt.value for elt in getattr(node.value, "elts", ())}
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{path.name}:{line} {name}" for name, line in bound.items() if name not in used | listed]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_top_level_imports(path):
    assert not _unused_imports(path)


def _object_setattr_calls(path: pathlib.Path) -> list[str]:
    tree = ast.parse(path.read_text())
    return [
        f"{path.name}:{node.lineno}"
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "__setattr__"
        and getattr(node.func.value, "id", None) == "object"
    ]


def test_records_are_frozen_by_one_helper():
    # a frozen dataclass's fields are set by _streams._freeze alone, which also makes their arrays read-only
    others = [path for path in sorted(SRC.glob("*.py")) if path.name != "_streams.py"]
    calls = [call for path in others for call in _object_setattr_calls(path)]
    assert not calls
    assert _object_setattr_calls(SRC / "_streams.py")  # the lint sees the one call it allows


def _dim_n_comparisons(source: str) -> list[int]:
    """Lines of the comparisons in `source` that read `.dim_n` on two or more of their sides."""

    def reads_dim_n(side: ast.AST) -> bool:
        return any(isinstance(node, ast.Attribute) and node.attr == "dim_n" for node in ast.walk(side))

    return [
        node.lineno
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.Compare) and sum(map(reads_dim_n, [node.left, *node.comparators])) > 1
    ]


def test_records_share_n_through_one_rule():
    # whether two records carry the same N is decided by _streams._check_records alone
    others = [path for path in sorted(SRC.glob("*.py")) if path.name != "_streams.py"]
    found = [f"{path.name}:{line}" for path in others for line in _dim_n_comparisons(path.read_text())]
    assert not found
    assert _dim_n_comparisons("ok = state.dim_n != kernel.dim_n")  # the lint sees the comparison it forbids
