"""The package's public surface: one export list, and every traced name alive."""

from __future__ import annotations

import ast
import importlib
import inspect
import pkgutil
from pathlib import Path

import gazekit

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


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


def traced_layers() -> dict:
    # Parsed, not imported: the tracer's LAYERS table is a literal.
    tree = ast.parse(TRACING.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "LAYERS" for t in node.targets
        ):
            return ast.literal_eval(node.value)
    raise AssertionError(f"no LAYERS table in {TRACING}")


def test_every_traced_function_exists():
    layers = traced_layers()
    assert layers
    for layer, functions in layers.items():
        module = importlib.import_module(f"gazekit.{layer}")
        for function in functions:
            assert callable(getattr(module, function, None)), f"gazekit.{layer}.{function}"


#: Settings that only ever took one value, now module constants.
FIXED = {
    "saliency.kl_div": "floor",
    "objectives.grad_loss_kl": "floor",
    "objectives.grad_loss_gaze": "floor",
    "objectives.fit_gaze_demo": "cfg",
    "alignment.info_nce": "symmetric",
    "textmetrics.rouge_l": "beta",
    "gradcheck.central_difference": "step",
    "gradcheck.run_gradient_checks": "tolerance",
}


def test_fixed_settings_are_not_parameters():
    for qualified, parameter in FIXED.items():
        module, _, function = qualified.partition(".")
        fn = getattr(importlib.import_module(f"gazekit.{module}"), function)
        assert parameter not in inspect.signature(fn).parameters, qualified
