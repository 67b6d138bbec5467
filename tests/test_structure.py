"""The library's shape: one import direction and no test oracles."""

import ast
import subprocess
import sys
from pathlib import Path

import halfwave_lab
from halfwave_lab import (chain, cli, config, evolution, fields, lax, runner,
                          solitons, spectral)

# names that moved to tests/oracles.py or were deleted, by former module
GONE = {spectral: "hilbert deriv halfwave_quadrature fd_deriv ifft "
                  "_apply_multiplier",
        config: "_INITIAL_KEYS",
        lax: "kernel_trace_oracle trace_sq_closed_form LaxMatrix",
        runner: "TRACE_IMAG_TOL _real_trace_power write_compare_csv "
                "write_timeseries_csv",
        cli: "soliton_check_main",
        evolution: "LaxDiagnostics TOP_EIGENVALUES time_loop DiagnosticsRecord",
        chain: "chain_step chain_run",
        fields: "great_circle tilted_circle_exact hyperbolic_circle_exact",
        solitons: "hilbert_quadrature halfwave_quadrature_line basis_phi "
                  "basis_psi field_residual_quadrature RESIDUAL_QUADRATURE_NUM "
                  "RankFourLax blaschke_deriv profile_halfwave"}


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


def test_no_function_level_imports():
    for path in Path(halfwave_lab.__file__).parent.glob("*.py"):
        for fn in ast.walk(ast.parse(path.read_text())):
            if isinstance(fn, ast.FunctionDef):
                assert not [n for n in ast.walk(fn) if isinstance(
                    n, (ast.Import, ast.ImportFrom))], f"{path.name}:{fn.name}"
