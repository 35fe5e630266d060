"""The names the traced benchmark and the package namespace rely on still resolve.

bench/spans.py wraps functions by name on each sirwaves module; a deletion
there would only show when `bench/run.py --trace 1` runs. This test makes it
show in the test suite instead.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]


def _bench_layers() -> dict:
    spec = importlib.util.spec_from_file_location("bench_spans", ROOT / "bench" / "spans.py")
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod.LAYERS


@pytest.mark.parametrize("layer,names", sorted(_bench_layers().items()))
def test_traced_functions_resolve(layer, names):
    mod = importlib.import_module(f"sirwaves.{layer}")
    for name in names:
        assert callable(getattr(mod, name, None)), f"sirwaves.{layer}.{name}"


def test_tracer_hooks_resolve():
    import sirwaves.model
    import sirwaves.wave_profile

    assert callable(sirwaves.model.GridFunction.__post_init__)
    assert callable(sirwaves.wave_profile.splu)


def test_package_imports_resolve():
    tree = ast.parse((ROOT / "src" / "sirwaves" / "__init__.py").read_text())
    imports = [node for node in tree.body if isinstance(node, ast.ImportFrom)]
    assert imports
    for node in imports:
        mod = importlib.import_module(f"sirwaves.{node.module}")
        for alias in node.names:
            assert hasattr(mod, alias.name), f"sirwaves.{node.module}.{alias.name}"
