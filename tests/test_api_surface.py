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
