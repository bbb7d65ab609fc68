"""The package's public surface: one export list, every traced name alive,
and a complete, canonical digest file."""

from __future__ import annotations

import ast
import importlib
import inspect
import json
import pkgutil
from pathlib import Path

import pytest

import gazekit

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def library_modules():
    # Every module but the command-line front end, which is not re-exported.
    names = sorted(m.name for m in pkgutil.iter_modules(gazekit.__path__) if m.name != "cli")
    return [importlib.import_module(f"gazekit.{name}") for name in names]


def test_package_exports_exactly_the_module_export_lists():
    module_names = [name for module in library_modules() for name in module.__all__]
    assert len(module_names) == len(set(module_names)), "a name is exported by two modules"
    assert len(gazekit.__all__) == len(set(gazekit.__all__))
    assert set(gazekit.__all__) == {"__version__", *module_names}
    for module in library_modules():
        for name in module.__all__:
            assert getattr(gazekit, name) is getattr(module, name), f"{module.__name__}.{name}"


def module_literal(path: Path, name: str):
    # Parsed, not imported: the benchmark's tables are literals.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no {name} table in {path}")


def test_every_traced_function_exists():
    layers = module_literal(PERFBENCH / "tracing.py", "LAYERS")
    assert layers
    for layer, functions in layers.items():
        module = importlib.import_module(f"gazekit.{layer}")
        for function in functions:
            assert callable(getattr(module, function, None)), f"gazekit.{layer}.{function}"


#: Settings that only ever took one value, now module constants, and
#: test-only knobs that are gone.
FIXED = (
    ("saliency.kl_div", "floor"),
    ("objectives.grad_loss_gaze", "floor"),
    ("objectives.fit_gaze_demo", "cfg"),
    ("alignment.info_nce", "symmetric"),
    ("textmetrics.rouge_l", "beta"),
    ("gradcheck.central_difference", "step"),
    ("gradcheck.run_gradient_checks", "tolerance"),
    ("gradcheck.run_gradient_checks", "corrupt"),
)


def test_fixed_settings_are_not_parameters():
    for qualified, parameter in FIXED:
        module, _, function = qualified.partition(".")
        fn = getattr(importlib.import_module(f"gazekit.{module}"), function)
        assert parameter not in inspect.signature(fn).parameters, qualified


def test_digest_file_is_complete_and_canonical():
    # A re-record rewrites the file in this form with every pool key, so a
    # diff after one can only show outputs that moved.
    text = (PERFBENCH / "digests.json").read_text(encoding="utf-8")
    recorded = json.loads(text)
    if text != json.dumps(recorded, indent=1, sort_keys=True) + "\n":
        # Not an assert: pytest's diff of two 400 kB strings takes minutes.
        pytest.fail("digests.json is not in record.py's json.dumps(indent=1, sort_keys=True) form")
    pool = module_literal(PERFBENCH / "record.py", "POOL")
    workloads = module_literal(PERFBENCH / "run.py", "WORKLOADS")
    assert set(recorded) == set(pool)
    for size, count in pool.items():
        assert set(recorded[size]) == set(workloads), size
        for workload in workloads:
            keys, expected = set(recorded[size][workload]), {str(key) for key in range(count)}
            assert keys == expected, (size, workload, sorted(keys ^ expected))


def unused_imports(path: Path) -> list[str]:
    # Names a module imports and never reads; a name listed in __all__ is
    # read by the package's star import.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
    used.update(module_literal(path, "__all__"))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    paths = sorted(Path(gazekit.__file__).parent.glob("*.py"))
    modules = [path for path in paths if path.name != "__init__.py"]
    assert len(modules) == 13
    assert [name for path in modules for name in unused_imports(path)] == []
