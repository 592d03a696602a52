"""Checks on the package source itself, run in place of a linter."""
import ast
import pathlib

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "biatrium"


def _defined(stmt) -> list[str]:
    """Names a module-level function, class or assignment binds."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return [stmt.name]
    targets = stmt.targets if isinstance(stmt, ast.Assign) else (
        [stmt.target] if isinstance(stmt, ast.AnnAssign) else [])
    return [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]


def _referenced(stmt) -> set[str]:
    """Names a statement reads: as a name, as an attribute or in an import."""
    names = set()
    for n in ast.walk(stmt):
        if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store):
            names.add(n.id)
        elif isinstance(n, ast.Attribute):
            names.add(n.attr)
        elif isinstance(n, ast.ImportFrom):
            names.update(a.name for a in n.names)
    return names


def unused_module_names(root=SRC) -> list[str]:
    """``module.name`` of every module-level function, class or assignment
    in ``root/*.py`` (dunders aside) that no other statement there reads."""
    stmts = [(p.stem, s) for p in sorted(root.glob("*.py"))
             for s in ast.parse(p.read_text(), str(p)).body]
    refs = [_referenced(s) for _, s in stmts]
    return [f"{module}.{name}"
            for i, (module, stmt) in enumerate(stmts) for name in _defined(stmt)
            if not (name.startswith("__") and name.endswith("__"))
            and not any(name in r for j, r in enumerate(refs) if j != i)]


def test_every_module_level_name_is_used():
    assert unused_module_names() == []


def test_unused_name_scan_finds_a_leftover(tmp_path):
    (tmp_path / "a.py").write_text(
        "from .b import used\n"
        "X = 1\n"
        "__version__ = '1'\n"
        "def leftover(n):\n    return leftover(n - 1) if n else used(X)\n")
    (tmp_path / "b.py").write_text("def used(x):\n    return x\n")
    assert unused_module_names(tmp_path) == ["a.leftover"]


# Modules that may call each name: the public Volume constructor is the
# boundary for files (nifti) and generated phantoms; everything derived
# from checked values goes through core._derived, the one bypass.
_CALLERS = {"Volume": {"core", "nifti", "phantom"}, "object.__new__": {"core"}}


def boundary_breaches(root=SRC) -> list[str]:
    """``module:line name`` of every call in ``root/*.py`` of a name in
    ``_CALLERS`` from a module not listed for it.  ``Volume`` matches
    however it is reached (``Volume(...)``, ``core.Volume(...)``)."""
    found = []
    for p in sorted(root.glob("*.py")):
        for n in ast.walk(ast.parse(p.read_text(), str(p))):
            if not isinstance(n, ast.Call):
                continue
            name = ast.unparse(n.func)
            if name.rsplit(".", 1)[-1] == "Volume":
                name = "Volume"
            if name in _CALLERS and p.stem not in _CALLERS[name]:
                found.append(f"{p.stem}:{n.lineno} {name}")
    return found


def test_checks_stay_at_the_boundary():
    assert boundary_breaches() == []


def test_boundary_scan_finds_a_rescan_and_a_second_bypass(tmp_path):
    (tmp_path / "core.py").write_text("def _derived(cls):\n    return object.__new__(cls)\n")
    (tmp_path / "nifti.py").write_text("def read(a, s):\n    return Volume(data=a, spacing=s)\n")
    (tmp_path / "geometry.py").write_text(
        "def pad(v):\n    return core.Volume(data=v.data, spacing=v.spacing)\n"
        "def raw(cls):\n    return object.__new__(cls)\n")
    (tmp_path / "pipeline.py").write_text(
        "class C:\n    def __post_init__(self):\n        object.__setattr__(self, 'a', 1)\n")
    assert boundary_breaches(tmp_path) == ["geometry:2 Volume", "geometry:4 object.__new__"]


# Where threads may start: the one helper that shares a case's work over its
# thread budget, and the pool that runs cases side by side.
_THREAD_STARTERS = {"ThreadPoolExecutor", "Thread"}
_THREAD_OWNERS = {("core", "_in_parallel"), ("pipeline", "run_pipeline")}


def thread_starts(root=SRC) -> list[str]:
    """``module:line name`` of every use in ``root/*.py`` of a name in
    ``_THREAD_STARTERS``, bare or as an attribute (``threading.Thread``),
    outside the module-level functions of ``_THREAD_OWNERS``.  Imports are
    not uses."""
    found = []
    for p in sorted(root.glob("*.py")):
        for stmt in ast.parse(p.read_text(), str(p)).body:
            owner = (p.stem, getattr(stmt, "name", None))
            for n in ast.walk(stmt):
                name = n.id if isinstance(n, ast.Name) else (
                    n.attr if isinstance(n, ast.Attribute) else None)
                if name in _THREAD_STARTERS and owner not in _THREAD_OWNERS:
                    found.append(f"{p.stem}:{n.lineno} {name}")
    return found


def test_threads_start_in_one_place():
    assert thread_starts() == []


def test_thread_scan_finds_a_second_starter(tmp_path):
    (tmp_path / "core.py").write_text(
        "import threading\n"
        "def _in_parallel(f):\n    threading.Thread(target=f).start()\n")
    (tmp_path / "pipeline.py").write_text(
        "from concurrent.futures import ThreadPoolExecutor\n"
        "def run_pipeline():\n    return ThreadPoolExecutor(2)\n"
        "def run_case():\n    return ThreadPoolExecutor(1)\n")
    (tmp_path / "nifti.py").write_text(
        "from threading import Thread\n"
        "class W:\n    def go(self, f):\n        Thread(target=f).start()\n")
    assert thread_starts(tmp_path) == ["nifti:4 Thread", "pipeline:5 ThreadPoolExecutor"]


# The one module that touches the C allocator, through ctypes.
_CTYPES_OWNER = "core"


def ctypes_uses(root=SRC) -> list[str]:
    """``module:line`` of each line of ``root/*.py`` outside
    ``_CTYPES_OWNER`` that imports ``ctypes`` or a submodule of it, reads
    the bare name, or holds the string ``"ctypes"`` (as ``importlib``
    takes it), in line order per module."""
    found = []
    for p in sorted(root.glob("*.py")):
        if p.stem == _CTYPES_OWNER:
            continue
        lines = set()
        for n in ast.walk(ast.parse(p.read_text(), str(p))):
            names = ([a.name for a in n.names] if isinstance(n, ast.Import) else
                     [n.module or ""] if isinstance(n, ast.ImportFrom) else
                     [n.id] if isinstance(n, ast.Name) else
                     [n.value] if isinstance(n, ast.Constant) and isinstance(n.value, str)
                     else [])
            if any(name.split(".")[0] == "ctypes" for name in names):
                lines.add(n.lineno)
        found += [f"{p.stem}:{line}" for line in sorted(lines)]
    return found


def test_ctypes_stays_in_core():
    assert ctypes_uses() == []


def test_ctypes_scan_finds_a_second_allocator_caller(tmp_path):
    (tmp_path / "core.py").write_text(
        "import ctypes\n"
        "def _trim():\n    ctypes.CDLL(None).malloc_trim(0)\n")
    (tmp_path / "nifti.py").write_text("import os, ctypes.util\n")
    (tmp_path / "pipeline.py").write_text(
        "import importlib\n"
        "def run():\n    return importlib.import_module('ctypes')\n"
        "from ctypes import CDLL\n")
    (tmp_path / "geometry.py").write_text(
        "ctypes_ok = 'not ctypes'\n"
        "def f(core):\n    return core.ctypes\n")
    assert ctypes_uses(tmp_path) == ["nifti:1", "pipeline:3", "pipeline:4"]
