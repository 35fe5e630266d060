"""The names the traced benchmark and the package namespace rely on still resolve.

bench/spans.py wraps functions by name on each sirwaves module and reads
`iterations` from every solve's report; a deletion there would only show when
`bench/run.py --trace 1` runs. These tests make it show in the test suite
instead. So does the import probe of the traced run,
which reads the import times of sirwaves and scipy.signal without a guard.
bench/workloads.py sizes its profile windows itself, and a test here holds
those windows to wave_profile.wave_window.
"""

import ast
import importlib
import importlib.util
import re
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_module(name: str):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", ROOT / "bench" / f"{name}.py")
    mod = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = mod  # dataclasses look their module up while the class is built
    spec.loader.exec_module(mod)
    return mod


@pytest.mark.parametrize("layer,names", sorted(_bench_module("spans").LAYERS.items()))
def test_traced_functions_resolve(layer, names):
    mod = importlib.import_module(f"sirwaves.{layer}")
    for name in names:
        assert callable(getattr(mod, name, None)), f"sirwaves.{layer}.{name}"


def test_tracer_hooks_resolve():
    import dataclasses

    import sirwaves.model
    import sirwaves.wave_profile

    assert callable(sirwaves.model.GridFunction.__post_init__)
    assert callable(sirwaves.wave_profile.splu)
    # the solve_fixed_point hook sums report.iterations
    assert "iterations" in {f.name for f in dataclasses.fields(sirwaves.wave_profile.FixedPointReport)}


def test_package_imports_resolve():
    tree = ast.parse((ROOT / "src" / "sirwaves" / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"sirwaves.{node.module}")
        for alias in node.names:
            assert hasattr(mod, alias.name), f"sirwaves.{node.module}.{alias.name}"


# names a module imports only so that something outside it finds them there:
# the benchmark tracer hooks wave_profile.splu
IMPORTED_FOR_OTHERS = {"wave_profile": {"splu"}}


@pytest.mark.parametrize("module", sorted(p.stem for p in (ROOT / "src" / "sirwaves").glob("*.py") if p.stem != "__init__"))
def test_module_imports_are_used(module):
    # a module-level import that nothing in the module reads is left over from
    # deleted code (a root finder whose call is gone, say)
    tree = ast.parse((ROOT / "src" / "sirwaves" / f"{module}.py").read_text())
    imported = {
        (alias.asname or alias.name).split(".")[0]
        for node in tree.body
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    assert imported - read - IMPORTED_FOR_OTHERS.get(module, set()) == set()


@pytest.mark.parametrize("seed", (1, 2, 3))
def test_bench_ladder_windows_are_wave_window(seed):
    # bench/workloads.py sizes its profile grids with its own copy of the
    # window rule; every ladder rung must get the grid wave_window gives
    from sirwaves import Grid, ModelParams, wave_window

    for case in _bench_module("workloads").cases_for("wave_ladder", seed):
        grid = Grid(**case.grid)
        assert wave_window(ModelParams(**case.params), case.c, grid.dx) == grid, case.name


def test_traced_import_probe_finds_both_modules(monkeypatch):
    # bench/run.py imports its siblings as top-level modules and sets the
    # thread-count variables on import; the path and the variables are
    # restored after the test
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        monkeypatch.delenv(var, raising=False)
    monkeypatch.syspath_prepend(str(ROOT / "bench"))
    found = _bench_module("run").probe_imports()
    assert sorted(found) == ["scipy.signal", "sirwaves"]
    assert all(v > 0.0 for v in found.values())


def test_only_model_reads_the_extinction_guard():
    # the incidence and its partials are pinned to 0 below ETA_DEFAULT in one
    # place, model.py; no other module keeps a copy of that guard
    readers = set()
    for path in (ROOT / "src" / "sirwaves").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            names = (
                [node.id] if isinstance(node, ast.Name)
                else [node.attr] if isinstance(node, ast.Attribute)
                else [a.name for a in node.names] if isinstance(node, ast.ImportFrom)
                else []
            )
            if "ETA_DEFAULT" in names:
                readers.add(path.name)
    assert readers == {"model.py"}


# the growth rate beta - gamma - delta and R0 = beta/(gamma + delta), formed from attributes
RATE_FORMS = re.compile(r"[\w.]+\.beta - [\w.]+\.gamma - [\w.]+\.delta|[\w.]+\.beta / \([\w.]+\.gamma \+ [\w.]+\.delta\)")


def test_only_model_forms_the_growth_rate_and_r0():
    # ModelParams.growth_rate and model.r_naught are the one place each is
    # formed; every other module reads them, so R0 > 1 is decided one way
    formers = {
        path.name
        for path in (ROOT / "src" / "sirwaves").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.BinOp) and RATE_FORMS.fullmatch(ast.unparse(node))
    }
    assert formers == {"model.py"}


# the minimal speed 2*sqrt(d2*q), formed from a diffusion rate d2
C_STAR_FORM = re.compile(r"2\.0 \* np\.sqrt\(.*\bd2 \* .*\)")


def test_only_linear_analysis_forms_the_minimal_speed():
    # minimal_speed is the one place c* is formed, so every "is c above c*?"
    # compares against one number
    formers = {
        path.name
        for path in (ROOT / "src" / "sirwaves").glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.BinOp) and C_STAR_FORM.fullmatch(ast.unparse(node))
    }
    assert formers == {"linear_analysis.py"}


def test_golden_section_serves_only_align_profiles():
    # the minimal speed and the full quotient's minimum are closed forms; no
    # numerical speed search may come back beside them
    callers = set()
    for path in (ROOT / "src" / "sirwaves").glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and "golden_section" in (
                        getattr(node.func, "id", None), getattr(node.func, "attr", None)):
                    callers.add(f"{path.stem}.{owner}")
    assert callers == {"wave_profile.align_profiles"}


def _sites(match) -> set:
    """module.owner of every AST node in src/ that match accepts; owner is the top-level def or class holding it."""
    found = set()
    for path in (ROOT / "src" / "sirwaves").glob("*.py"):
        for top in ast.parse(path.read_text()).body:
            owner = getattr(top, "name", "<module>")
            found |= {f"{path.stem}.{owner}" for node in ast.walk(top) if match(node)}
    return found


# the hypothesis d3 < 2*d2 of the envelope construction, or its negation
D3_HYPOTHESIS = re.compile(r"[\w.]*\bd3 (<|<=|>|>=) 2(\.0)? \* [\w.]*\bd2")


def test_only_linear_analysis_compares_d3_with_2_d2():
    # front_roots decides where the construction applies; no module keeps its own copy of the test
    compares = _sites(lambda node: isinstance(node, ast.Compare) and D3_HYPOTHESIS.fullmatch(ast.unparse(node)))
    assert {site.split(".")[0] for site in compares} == {"linear_analysis"}


def test_only_front_roots_and_analyze_read_degenerate():
    # c = c* is refused in front_roots; analyze reports the double root
    readers = _sites(lambda node: isinstance(node, ast.Attribute) and node.attr == "degenerate")
    assert readers == {"linear_analysis.front_roots", "cli.cmd_analyze"}


def _clips_an_exponential(node) -> bool:
    return (isinstance(node, ast.Call) and ast.unparse(node.func) == "np.maximum"
            and any(isinstance(inner, ast.Call) and ast.unparse(inner.func) == "np.exp"
                    for arg in node.args for inner in ast.walk(arg)))


def test_one_envelope_formula():
    # every envelope piece max(amp*exp(lam*x)*(1 - M*exp(eps*x)), 0) is linear_analysis.envelope
    assert _sites(_clips_an_exponential) == {"linear_analysis.envelope"}


def _opens_for_writing(node) -> bool:
    """An open(...) call whose mode writes, appends, creates or updates, or is not a literal."""
    if not (isinstance(node, ast.Call) and ast.unparse(node.func) == "open"):
        return False
    modes = node.args[1:2] + [kw.value for kw in node.keywords if kw.arg == "mode"]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)) or set(m.value) & set("wax+")
               for m in modes)


def test_every_output_is_written_and_hashed_by_one_writer():
    # cli._write records the sha256 of the bytes it writes, and the manifest lists exactly that
    # record; a second writer or a second hash would let the manifest and the files drift apart
    assert _sites(_opens_for_writing) == {"cli._write"}
    assert _sites(lambda node: isinstance(node, ast.Name) and node.id == "hashlib") == {"cli._write"}
