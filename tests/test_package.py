import ast
import importlib
import inspect
import json
import os
import pkgutil
import subprocess
import sys
from pathlib import Path

import pytest

import stargraph
import stargraph.oracle

# The public API, frozen: a name added to or dropped from the package must be
# added to or dropped from this list in the same change.
PUBLIC = """
AssemblyError CoefficientTriple DomainError ExtensionError GridSpec HARMONIC
InvalidGraphError InvalidPointError KernelSpec MIN_TIME NumericalInputError OU
OracleConfig PolyGauss ShapeError SpectralDatum StabilityError StarEvolution
StarFunction StarGraph StarGraphError StarPoint StencilError TRUST_RADIUS
TabulatedLineKernel TracePair TruncationRow VertexContinuityError
apply apply_generator eigenbasis evolve_sequence
extend_coefficients flat_factor form_spectrum from_flat ground_state
hermite_coefficients ho_coefficients ho_line_kernel integrate_star line_kernel mu_density multiplicity
ou_coefficients ou_line_kernel similarity_defect simpson_weights
solve_line_dirichlet solve_star star_kernel sup_distance tabulate_kernel
to_flat trace_closed_form trace_partial truncation_study
""".split()

# The public options, frozen: every parameter with a default, and every
# **kwargs, of the public callables and of the public classes' constructors
# and public methods.  Each one doubles the configurations that tests and
# benchmarks must cover, so adding one must show up here.
KNOBS = """
GridSpec.cutoff GridSpec.points_per_edge OracleConfig.dt
OracleConfig.h OracleConfig.n OracleConfig.t_final OracleConfig.theta
PolyGauss.gauss StarFunction.continuous_at_vertex
StarFunction.from_callables.continuous_at_vertex
StarFunction.from_samples.continuous_at_vertex StarFunction.profiles
StarFunction.trusted_cutoff apply.grid eigenbasis.grid evolve_sequence.grid
form_spectrum.count ground_state.grid similarity_defect.grid sup_distance.radius_max
""".split()


def _knobs(qualname: str, fn) -> list[str]:
    params = inspect.signature(fn).parameters.values()
    return [
        f"{qualname}.{p.name}"
        for p in params
        if p.kind is p.VAR_KEYWORD or p.default is not p.empty
    ]


def public_knobs() -> list[str]:
    knobs = []
    for name in stargraph.__all__:
        obj = getattr(stargraph, name)
        if inspect.isclass(obj):
            if issubclass(obj, BaseException):
                continue
            for attr, member in vars(obj).items():
                if attr.startswith("_") and attr != "__init__":
                    continue
                if isinstance(member, (classmethod, staticmethod)):
                    member = member.__func__
                if inspect.isfunction(member):
                    qualname = name if attr == "__init__" else f"{name}.{attr}"
                    knobs += _knobs(qualname, member)
        elif inspect.isfunction(obj):
            knobs += _knobs(name, obj)
    return knobs


def test_public_names_resolve_once_and_match_the_frozen_list():
    names = stargraph.__all__
    assert len(names) == len(set(names))
    for name in names:
        assert getattr(stargraph, name) is not None, name
    assert sorted(names) == sorted(PUBLIC)


def test_module_all_names_resolve():
    # a stale entry would only trip ``from stargraph.<module> import *``
    checked = 0
    for info in pkgutil.iter_modules(stargraph.__path__):
        module = importlib.import_module(f"stargraph.{info.name}")
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"stargraph.{info.name}.{name}"
            checked += 1
    assert checked > 0


def test_bench_tracer_hook_names_resolve():
    # bench/tracing.py rebinds this module attribute to count its calls
    assert callable(stargraph.oracle.solve_banded)


def test_public_options_match_the_frozen_list():
    knobs = public_knobs()
    assert len(knobs) == len(set(knobs))
    assert sorted(knobs) == sorted(KNOBS)
    assert len(KNOBS) == 20


ROOT = Path(__file__).resolve().parent.parent


def _unused_imports(path: Path) -> list[str]:
    source = path.read_text()
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("# noqa" in line for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            imported[alias.asname or alias.name.split(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
    return [f"{path.relative_to(ROOT)}:{line} {name}"
            for name, line in sorted(imported.items()) if name not in used]


def test_modules_import_only_what_they_use():
    # the package's stand-in for a linter's unused-import rule: a name counts
    # as used when the module reads it, lists it in __all__, or imports it on
    # a line marked ``# noqa``
    paths = [path for folder in ("src/stargraph", "scripts", "tests")
             for path in sorted((ROOT / folder).glob("*.py"))]
    assert paths
    unused = [entry for path in paths for entry in _unused_imports(path)]
    assert unused == []


def _source_env() -> dict:
    """The environment with this checkout's sources first on PYTHONPATH."""

    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path}


def test_cli_starts_without_scipy_linalg():
    # scipy.linalg takes most of a cold start, and only the solvers need it:
    # the kernel-formula commands must neither import nor load it
    script = """
import contextlib, io, json, sys
import stargraph.cli
loaded = ["scipy.linalg" in sys.modules]
codes = []
for argv in (["evolve", "--times", "0.5"], ["kernel", "--t", "1", "--x", "0.5", "--y", "0.2"]):
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(stargraph.cli.main(argv))
    loaded.append("scipy.linalg" in sys.modules)
print(json.dumps({"codes": codes, "loaded": loaded}))
"""
    done = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=_source_env(), timeout=120)
    assert done.returncode == 0, done.stderr
    assert json.loads(done.stdout) == {"codes": [0, 0], "loaded": [False, False, False]}


@pytest.mark.parametrize("script", sorted((ROOT / "scripts").glob("*.py")), ids=lambda p: p.name)
def test_scripts_run_with_default_arguments(script):
    done = subprocess.run([sys.executable, str(script)], capture_output=True, text=True,
                          env=_source_env(), timeout=300)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip()
