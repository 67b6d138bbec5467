"""The library's shape: its public names, one import direction and no test
oracles."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import halfwave_lab
from halfwave_lab import (chain, cli, config, evolution, fields, lax, runner,
                          solitons, spectral)

# the package's public names: the modules and what the CLI, the demos and
# the paper's identities use
PUBLIC = set("""
    BlaschkeProfile ConfigError ScenarioConfig SpectrumReport SpinField
    build_B build_L chain chain_energy chain_rhs config constant_field
    continuum_compare dispatch energy evolution fields hyperbolic_circle lax
    lax_residual parse_config profile_energy profile_residual
    random_band_limited random_rational rank_four_lax rhs run runner solitons
    spectral spectrum tilted_circle total_spin""".split())

# names each module keeps but the package does not export
UNEXPORTED = {evolution: "step ETA", solitons: "blaschke_eval profile_eval",
              lax: "pauli_map su11_map"}

# names that moved to tests/oracles.py or were deleted, by former module
GONE = {spectral: "hilbert deriv halfwave_quadrature fd_deriv ifft "
                  "_apply_multiplier",
        config: "_INITIAL_KEYS _SCENARIO_KEYS RK4_STABILITY_LIMIT "
                "MIDPOINT_LIMIT",
        lax: "kernel_trace_oracle trace_sq_closed_form LaxMatrix",
        runner: "TRACE_IMAG_TOL _real_trace_power write_compare_csv "
                "write_timeseries_csv",
        cli: "soliton_check_main _error_record",
        evolution: "LaxDiagnostics TOP_EIGENVALUES time_loop DiagnosticsRecord "
                   "cross eta_cross eta_dot _flow",
        chain: "chain_step chain_run chain_rhs_direct rescale_ratio cross",
        fields: "great_circle tilted_circle_exact hyperbolic_circle_exact",
        solitons: "hilbert_quadrature halfwave_quadrature_line basis_phi "
                  "basis_psi field_residual_quadrature RESIDUAL_QUADRATURE_NUM "
                  "RankFourLax blaschke_deriv profile_halfwave "
                  "profile_energy_quadrature ENERGY_QUADRATURE_NUM "
                  "QUADRATURE_HALF_WIDTH cross"}


def test_public_names():
    # in a fresh interpreter: importing a submodule (cli) adds its name
    src = str(Path(halfwave_lab.__file__).parents[1])
    code = (f"import sys\nsys.path.insert(0, {src!r})\nimport halfwave_lab\n"
            "print(*dir(halfwave_lab))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert {n for n in out.split() if not n.startswith("_")} == PUBLIC
    for module, names in UNEXPORTED.items():
        for name in names.split():
            assert hasattr(module, name), f"{module.__name__}.{name}"
            assert not hasattr(halfwave_lab, name), name


def test_algebra_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("halfwave_lab.algebra")


def test_evolution_does_not_import_lax():
    # a bare package object skips __init__, which imports every module
    src = str(Path(halfwave_lab.__file__).parents[1])
    code = (f"import importlib.util, sys, types\nsys.path.insert(0, {src!r})\n"
            "pkg = types.ModuleType('halfwave_lab')\n"
            "pkg.__path__ = importlib.util.find_spec('halfwave_lab')"
            ".submodule_search_locations\n"
            "sys.modules['halfwave_lab'] = pkg\n"
            "import halfwave_lab.evolution\n"
            "print(sorted(sys.modules))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout
    assert "'halfwave_lab.evolution'" in out
    assert "'halfwave_lab.lax'" not in out


def test_oracles_and_deleted_names_are_gone():
    for module, names in GONE.items():
        for name in names.split():
            assert not hasattr(module, name), f"{module.__name__}.{name}"
            assert not hasattr(halfwave_lab, name), name
    # perfbench's, reached as chain.chain_rhs_fft
    assert not hasattr(halfwave_lab, "chain_rhs_fft")


def test_config_names_no_scheme():
    # each scheme's dt limit and name live in evolution.SCHEMES alone
    tree = ast.parse(Path(config.__file__).read_text())
    docstrings = {id(node.body[0].value) for node in ast.walk(tree)
                  if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef))
                  and ast.get_docstring(node) is not None}
    strings = [n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
               and isinstance(n.value, str) and id(n) not in docstrings]
    assert strings and not [s for s in strings
                            if "rk4" in s or "midpoint" in s]


def test_library_does_not_import_the_test_oracles():
    for path in Path(halfwave_lab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        names = [a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                 for a in n.names]
        names += [n.module for n in ast.walk(tree)
                  if isinstance(n, ast.ImportFrom) and n.module]
        assert not {"oracles", "tests"} & {m.split(".")[0] for m in names}, \
            path.name


def test_no_function_level_imports():
    for path in Path(halfwave_lab.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                assert not [n for n in ast.walk(fn) if isinstance(
                    n, (ast.Import, ast.ImportFrom))], f"{path.name}:{fn.name}"


def test_one_writer_for_the_files_of_a_run():
    # runner.write renames each file from its .tmp name, error.json too;
    # runner.clear removes both names
    for path in Path(halfwave_lab.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text())
        renames = [n for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                   and n.attr == "replace" and isinstance(n.value, ast.Name)
                   and n.value.id == "os"]
        names = {n.value for n in ast.walk(tree) if isinstance(n, ast.Constant)
                 and n.value in (".tmp", "error.json")}
        if path.name == "runner.py":
            assert len(renames) == 1 and names == {".tmp", "error.json"}
        else:
            assert not renames and not names, path.name
