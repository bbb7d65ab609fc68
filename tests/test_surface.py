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


def module_literal(path: Path, name: str, default=None):
    # Parsed, not imported: the benchmark's tables are literals.
    tree = ast.parse(path.read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == name for t in node.targets
        ):
            return ast.literal_eval(node.value)
    if default is not None:
        return default
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
    used.update(module_literal(path, "__all__", default=()))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


def test_no_module_imports_a_name_it_does_not_use():
    paths = sorted(Path(gazekit.__file__).parent.glob("*.py"))
    modules = [path for path in paths if path.name != "__init__.py"]
    assert len(modules) == 13
    root = Path(__file__).resolve().parents[1]
    modules += sorted((root / "tests").glob("*.py")) + sorted((root / "scripts").glob("*.py"))
    assert [name for path in modules for name in unused_imports(path)] == []


def file_writes(path: Path) -> list[str]:
    # "function:line" of each call that writes a file: Path.write_text or
    # write_bytes, open() in a writing mode, or an os.open that can create or
    # truncate one. A mode that is not a literal counts as writing.
    found = []

    def writes(call: ast.Call) -> bool:
        func = call.func
        name = func.attr if isinstance(func, ast.Attribute) else getattr(func, "id", None)
        if name in ("write_text", "write_bytes"):
            return True
        if name != "open":
            return False
        if isinstance(func, ast.Attribute) and getattr(func.value, "id", None) == "os":
            flags = {n.attr for n in ast.walk(call.args[1]) if isinstance(n, ast.Attribute)}
            return bool(flags & {"O_CREAT", "O_TRUNC"})
        mode = call.args[1] if len(call.args) > 1 else next((k.value for k in call.keywords if k.arg == "mode"), None)
        if mode is None:
            return False
        return not isinstance(mode, ast.Constant) or any(c in mode.value for c in "wax+")

    def visit(node, function):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, child.name)
                continue
            if isinstance(child, ast.Call) and writes(child):
                found.append(f"{function}:{child.lineno}")
            visit(child, function)

    visit(ast.parse(path.read_text(encoding="utf-8")), None)
    return found


def test_every_file_is_written_by_the_one_writer():
    # A write elsewhere would bypass its write-then-replace policy.
    package = Path(gazekit.__file__).parent
    writes = {path.name: file_writes(path) for path in sorted(package.glob("*.py"))}
    assert {name: calls for name, calls in writes.items() if calls} == {"manifests.py": writes["manifests.py"]}
    assert {call.partition(":")[0] for call in writes["manifests.py"]} == {"_write_file"}
    assert len(writes["manifests.py"]) == 3  # in place, the temporary's fd, its os.open
    csv_writers = [
        path.name
        for path in package.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Attribute) and node.attr == "writer" and getattr(node.value, "id", None) == "csv"
    ]
    assert csv_writers == ["manifests.py"]


def test_each_argument_check_has_one_implementation():
    # The grid gate, the shape check and the frozen copy live in grids, and
    # the softmax core alone refuses non-finite caption logits.
    package = Path(gazekit.__file__).parent
    sources = {path.name: path.read_text(encoding="utf-8") for path in sorted(package.glob("*.py"))}
    assert sum(text.count("grid shapes differ") for text in sources.values()) == 1
    assert [name for name, text in sources.items() if "non-empty 2-D" in text] == ["grids.py"]
    assert "np.isfinite" not in sources["objectives.py"]
    assert [name for name, text in sources.items() if "setflags(write=False)" in text] == ["grids.py"]


def test_each_loss_gradient_step_has_one_implementation():
    # Read as syntax, so a comment naming a pattern does not count. The
    # cross-entropy gradient subtracts a one-hot in grids, InfoNCE scores
    # its pairs once, only saliency knows the KL floor, the grid gate alone
    # asks for two dimensions, and StructuredCaption alone refuses an empty field.
    package = Path(gazekit.__file__).parent
    paths = sorted(package.glob("*.py"))
    trees = {path.name: ast.parse(path.read_text(encoding="utf-8")) for path in paths}

    def where(match):
        return [name for name, tree in trees.items() for node in ast.walk(tree) if match(node)]

    def is_name(node, name):
        return isinstance(node, ast.Name) and node.id == name

    np_eye = where(lambda n: isinstance(n, ast.Attribute) and n.attr == "eye" and is_name(n.value, "np"))
    assert np_eye == []
    floor = "DEFAULT_KL_FLOOR"
    named = where(lambda n: is_name(n, floor) or (isinstance(n, ast.alias) and n.name == floor))
    assert set(named) == {"saliency.py"}
    by_tau = where(lambda n: isinstance(n, ast.BinOp) and ast.unparse(n).endswith(" / tau"))
    assert by_tau == ["alignment.py"]
    two_dims = where(lambda n: isinstance(n, ast.Compare) and ast.unparse(n).endswith(".ndim != 2"))
    assert two_dims == ["grids.py"]
    empty = where(lambda n: isinstance(n, ast.Raise) and is_name(getattr(n.exc, "func", None), "EmptyField"))
    assert empty == ["captions.py"]


def test_main_alone_maps_errors_to_exit_codes():
    # Read as syntax. The Ctrl-C code is written only in main, and a command
    # returns 2 only after it has printed one line per problem of several:
    # evaluate's unpaired or unreadable files, curate's skipped videos.
    tree = ast.parse((Path(gazekit.__file__).parent / "cli.py").read_text(encoding="utf-8"))

    def holders(match):
        # The top-level definitions holding a node that matches.
        return [getattr(top, "name", "<module>") for top in tree.body if any(map(match, ast.walk(top)))]

    def is_int(node, value):
        return isinstance(node, ast.Constant) and type(node.value) is int and node.value == value

    def returns_2(node):
        return isinstance(node, ast.Return) and node.value is not None and any(
            is_int(n, 2) for n in ast.walk(node.value)
        )

    assert holders(lambda n: is_int(n, 130)) == ["main"]
    assert holders(returns_2) == ["cmd_evaluate", "cmd_curate", "main"]
