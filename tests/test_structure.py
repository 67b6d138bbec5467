"""The library's shape: an empty package root, one import direction and no
test oracles."""

import ast
import dataclasses
import importlib
import subprocess
import sys
from pathlib import Path

import pytest

import halfwave_lab
from halfwave_lab import (chain, cli, config, evolution, fields, lax, runner,
                          solitons, spectral)

SRC = str(Path(halfwave_lab.__file__).parents[1])
PERFBENCH = Path(__file__).parents[1] / "perfbench"

# module -> the other halfwave_lab modules that importing it loads, the
# closure of its imports: evolution does not load lax, and config loads
# neither lax nor chain
LOADS = {"spectral": "", "solitons": "", "fields": "spectral",
         "evolution": "fields spectral",
         "lax": "evolution fields spectral",
         "chain": "evolution fields spectral",
         "config": "evolution fields solitons spectral",
         "runner": "chain config evolution fields lax solitons spectral",
         "cli": "chain config evolution fields lax runner solitons spectral"}

# module attributes that perfbench or the tests use
MODULE_ONLY = {evolution: "step ETA", solitons: "blaschke_eval profile_eval",
               lax: "pauli_map su11_map"}

# names that moved to tests/oracles.py or were deleted, by former module or
# class
GONE = {spectral: "hilbert deriv halfwave_quadrature fd_deriv ifft "
                  "_apply_multiplier",
        config: "_INITIAL_KEYS _SCENARIO_KEYS RK4_STABILITY_LIMIT "
                "MIDPOINT_LIMIT _constant",
        config.ScenarioConfig: "N_list soliton_v soliton_zeros",
        lax: "kernel_trace_oracle trace_sq_closed_form LaxMatrix",
        runner: "TRACE_IMAG_TOL _real_trace_power write_compare_csv "
                "write_timeseries_csv soliton_report _run_on_workers",
        cli: "soliton_check_main _error_record",
        evolution: "LaxDiagnostics TOP_EIGENVALUES time_loop DiagnosticsRecord "
                   "cross eta_cross eta_dot _flow",
        chain: "chain_step chain_run chain_rhs_direct rescale_ratio cross",
        fields: "great_circle tilted_circle_exact hyperbolic_circle_exact "
                "ConstraintError",
        solitons: "hilbert_quadrature halfwave_quadrature_line basis_phi "
                  "basis_psi field_residual_quadrature RESIDUAL_QUADRATURE_NUM "
                  "RankFourLax blaschke_deriv profile_halfwave "
                  "profile_energy_quadrature ENERGY_QUADRATURE_NUM "
                  "QUADRATURE_HALF_WIDTH cross"}


def fresh(statement):
    """The halfwave_lab modules loaded, and the package's names, after
    `statement` in a fresh interpreter."""
    code = (f"import sys\nsys.path.insert(0, {SRC!r})\n{statement}\n"
            "import halfwave_lab\n"
            "print(*[m for m in sys.modules if m.startswith('halfwave_lab.')])\n"
            "print(*dir(halfwave_lab))\n")
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True).stdout.split("\n")
    return set(out[0].split()), set(out[1].split())


def test_root_exports_and_loads_nothing():
    modules, names = fresh("import halfwave_lab")
    assert modules == set()
    assert {n for n in names if not n.startswith("_")} == set()
    # its docstring lists every module
    assert set(LOADS) == {p.stem for p in Path(SRC, "halfwave_lab").glob("*.py")
                          if p.stem != "__init__"}
    assert all(f"\n  {m} " in halfwave_lab.__doc__ for m in LOADS)
    for module, attrs in MODULE_ONLY.items():
        for name in attrs.split():
            assert hasattr(module, name), f"{module.__name__}.{name}"


@pytest.mark.parametrize("module", LOADS)
def test_each_module_loads_only_its_imports(module):
    modules, _ = fresh(f"import halfwave_lab.{module}")
    assert modules == {f"halfwave_lab.{m}"
                       for m in [module, *LOADS[module].split()]}


def test_algebra_module_is_gone():
    with pytest.raises(ModuleNotFoundError):
        importlib.import_module("halfwave_lab.algebra")


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


def test_config_text_is_parsed_through_the_key_table():
    # each kind lists the KEYS names it reads, and its sections follow from
    # them; parse_config reads the options of each section in one loop, and
    # neither runner.dispatch nor a FAMILIES builder turns text into numbers
    names = {name for name, *_ in config.KEYS.values()}
    for target, reads, command in config.KINDS.values():
        assert set(reads) <= names
    tree = ast.parse(Path(config.__file__).read_text())
    assert len([n for n in ast.walk(tree) if isinstance(n, ast.Attribute)
                and n.attr == "options"]) == 1
    # the FAMILIES table with its lambdas, each named builder, and dispatch
    checked = {config: {"FAMILIES", *(builder.__name__ for _, builder
                                      in config.FAMILIES.values())},
               runner: {"dispatch"}}
    functions = [node for module, names in checked.items()
                 for node in ast.parse(Path(module.__file__).read_text()).body
                 if names & {getattr(node, "name", None),
                             *(t.id for t in getattr(node, "targets", ()))}]
    assert len(functions) == 3
    for fn in functions:
        assert not [n for n in ast.walk(fn) if isinstance(n, ast.Call)
                    and isinstance(n.func, ast.Name)
                    and n.func.id in ("float", "int")], fn


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


def test_runner_steps_only_in_evolve():
    # the evolve and chain branches both step through runner._evolve, whose
    # one evolution.run call runs in process or with the Lax records on
    # workers
    tree = ast.parse(Path(runner.__file__).read_text())
    inside = set()
    for fn in ast.walk(tree):
        if isinstance(fn, ast.FunctionDef) and fn.name == "_evolve":
            inside |= {id(n) for n in ast.walk(fn)}
    calls = [n for n in ast.walk(tree) if isinstance(n, ast.Call)
             and isinstance(n.func, ast.Attribute) and n.func.attr == "run"
             and isinstance(n.func.value, ast.Name)
             and n.func.value.id == "evolution"]
    assert len(calls) == 1 and id(calls[0]) in inside
    assert "run" not in {a.name for n in ast.walk(tree)
                         if isinstance(n, ast.ImportFrom) for a in n.names}


# the trace targets of perfbench/tracer.py that no longer exist, as CI's
# traced benchmark smoke run pins them
DEAD_TARGETS = {"chain.chain_step", "chain.cross", "chain.inverse_sin2_kernel",
                "evolution.cross", "evolution.eta_cross",
                "fields:HyperbolicField.renormalized", "runner.write_chain_csv",
                "runner.write_timeseries_csv"}


def test_names_the_benchmark_calls_exist():
    # perfbench is read, not imported: a library change that removes a name
    # it wraps or calls fails here, not only in CI's traced run
    tree = ast.parse((PERFBENCH / "tracer.py").read_text())
    targets = next(ast.literal_eval(n.value) for n in tree.body
                   if isinstance(n, ast.Assign) and n.targets[0].id == "TARGETS")
    missing = set()
    for where, attr, _ in targets:  # resolved as Tracer.install does
        module, _, cls = where.partition(":")
        owner = importlib.import_module(f"halfwave_lab.{module}")
        if not hasattr(getattr(owner, cls, None) if cls else owner, attr):
            missing.add(f"{where}.{attr}")
    assert missing == DEAD_TARGETS and len(targets) - len(missing) == 15
    tree = ast.parse((PERFBENCH / "sweep.py").read_text())
    calls = {(n.value.id, n.attr) for n in ast.walk(tree)
             if isinstance(n, ast.Attribute) and isinstance(n.value, ast.Name)
             and n.value.id in LOADS}
    assert calls == {("chain", "SpinChain"), ("chain", "chain_rhs_fft"),
                     ("chain", "chain_energy"), ("evolution", "step"),
                     ("spectral", "halfwave_op"),
                     ("fields", "random_band_limited")}
    for module, name in calls:
        assert hasattr(importlib.import_module(f"halfwave_lab.{module}"),
                       name), f"{module}.{name}"
    # the tracer reads each Lax spectrum's rank and dimension
    assert {"rank", "singular_values"} <= {
        f.name for f in dataclasses.fields(lax.SpectrumReport)}
