"""Repository hygiene: the benchmark's tracer still finds every name it wraps,
and no module of the package keeps a `from` import it never uses."""

import ast
import importlib.util
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
BENCH = ROOT / "bench"
PACKAGE = ROOT / "src" / "bpb4"


def test_benchmark_tracer_installs_and_uninstalls(monkeypatch):
    # bench/run.py imports its siblings (refcheck, spans, speed) by bare name,
    # and load_program() puts src/ on sys.path; both are undone afterwards.
    monkeypatch.setattr(sys, "path", [str(BENCH)] + sys.path)
    spec = importlib.util.spec_from_file_location("bench_run", BENCH / "run.py")
    run = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, "bench_run", run)  # its dataclasses need it
    spec.loader.exec_module(run)
    lib = run.load_program()
    modules = list(vars(lib).values())
    before = [dict(vars(m)) for m in modules]
    tracer = run.make_tracer(lib)
    tracer.install()  # AttributeError if a wrapped name no longer exists
    try:
        assert lib.fixes.l1_fix is not before[modules.index(lib.fixes)]["l1_fix"]
    finally:
        tracer.uninstall()
    for module, names in zip(modules, before):
        assert all(vars(module)[k] is v for k, v in names.items()), module.__name__


def _annotation_names(node):
    """Names inside a string annotation such as ``-> "YVec"``."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return {n.id for n in ast.walk(ast.parse(node.value, mode="eval"))
                if isinstance(n, ast.Name)}
    return set()


def unused_from_imports(path: Path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            used |= _annotation_names(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            used |= _annotation_names(node.returns)
        elif isinstance(node, ast.AnnAssign):
            used |= _annotation_names(node.annotation)
    return sorted((line, name) for name, line in imported.items() if name not in used)


# __init__.py imports are the package's public names, used by re-export.
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_from_imports(path):
    assert unused_from_imports(path) == []


def test_unused_import_detector_flags_a_dead_name(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("from typing import Optional, Tuple\n"
                   "def f(x: 'Tuple[int]'):\n    return x\n")
    assert unused_from_imports(src) == [(1, "Optional")]
