"""Checks on the package source itself, run in place of a linter."""
import ast
import math
import pathlib
import re

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


def unused_imports(root=SRC) -> list[str]:
    """``module.name`` of every name an import binds in ``root/*.py`` that
    its module never reads; ``__init__.py``, which imports to re-export,
    and ``from __future__`` imports aside."""
    found = []
    for p in sorted(root.glob("*.py")):
        if p.name == "__init__.py":
            continue
        tree = ast.parse(p.read_text(), str(p))
        read = {n.id for n in ast.walk(tree)
                if isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Store)}
        for n in ast.walk(tree):
            if isinstance(n, ast.Import) or (
                    isinstance(n, ast.ImportFrom) and n.module != "__future__"):
                found += [f"{p.stem}.{name}"
                          for name in (a.asname or a.name.split(".")[0] for a in n.names)
                          if name not in read]
    return found


def test_every_import_is_used():
    assert unused_imports() == []


def test_unused_import_scan_finds_a_leftover(tmp_path):
    (tmp_path / "__init__.py").write_text("from .a import kept\n")
    (tmp_path / "a.py").write_text(
        "from __future__ import annotations\n"
        "import os.path\n"
        "import numpy as np\n"
        "from .core import _slabs, kept as k\n"
        "def f(x: np.ndarray):\n    return k(os.path.join(x))\n")
    (tmp_path / "b.py").write_text("import json, sys\nsys.exit()\n")
    assert unused_imports(tmp_path) == ["a._slabs", "b.json"]


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


# Where threads may start: the one helper that runs work side by side, a
# case's over its thread budget and the cases of a batch alike.
_THREAD_STARTERS = {"ThreadPoolExecutor", "Thread"}
_THREAD_OWNERS = {("core", "_in_parallel")}


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
    assert thread_starts(tmp_path) == ["nifti:4 Thread", "pipeline:3 ThreadPoolExecutor",
                                       "pipeline:5 ThreadPoolExecutor"]


# The one owner of each batch-wide decision: _in_parallel sets the thread
# budget of the cases of a batch, and run_pipeline trims the heap, once,
# before its first case.
_BATCH_OWNERS = {"_case_threads.set": ("core", "_in_parallel"),
                 "_release_free_heap": ("pipeline", "run_pipeline")}


def batch_policy_uses(root=SRC) -> list[str]:
    """``module:line name`` of every use in ``root/*.py`` of a name in
    ``_BATCH_OWNERS`` outside the module-level function that owns it, and
    of every use there after the first.  A use is a call or a reference
    passed on (``ctx.run(_case_threads.set, n)``); ``_case_threads.set``
    matches however the variable is reached (``core._case_threads.set``),
    ``_release_free_heap`` bare or as an attribute.  Imports and the
    definition are not uses.  Per module in walk order."""
    found = []
    for p in sorted(root.glob("*.py")):
        for stmt in ast.parse(p.read_text(), str(p)).body:
            owner = (p.stem, getattr(stmt, "name", None))
            owned = set()
            for n in ast.walk(stmt):
                if isinstance(n, ast.Attribute) and n.attr == "set":
                    name = ast.unparse(n.value).rsplit(".", 1)[-1] + ".set"
                elif isinstance(n, ast.Attribute):
                    name = n.attr
                else:
                    name = n.id if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load) else None
                if name not in _BATCH_OWNERS:
                    continue
                if owner == _BATCH_OWNERS[name] and name not in owned:
                    owned.add(name)
                else:
                    found.append(f"{p.stem}:{n.lineno} {name}")
    return found


def test_batch_policy_has_one_owner():
    assert batch_policy_uses() == []


def test_batch_policy_scan_finds_a_second_setter_and_caller(tmp_path):
    (tmp_path / "core.py").write_text(
        "_case_threads = ContextVar('_case_threads')\n"
        "def _in_parallel(tasks, threads):\n"
        "    ctx.run(_case_threads.set, threads)\n"
        "    return _case_threads.get(0)\n"
        "def _release_free_heap():\n    pass\n"
        "def _threads(n):\n    _case_threads.set(n)\n")
    (tmp_path / "pipeline.py").write_text(
        "from .core import _release_free_heap\n"
        "def run_pipeline(cases):\n"
        "    _release_free_heap()\n"
        "    batch.run(core._case_threads.set, 2)\n"
        "    return _in_parallel(cases), _release_free_heap()\n"
        "def run_case(case):\n    core._release_free_heap()\n")
    assert batch_policy_uses(tmp_path) == [
        "core:8 _case_threads.set",
        "pipeline:4 _case_threads.set", "pipeline:5 _release_free_heap",
        "pipeline:7 _release_free_heap",
    ]


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


# Where processes may start: the one function that owns a backend's
# process group, from its start to its reap.
_PROCESS_OWNER = ("core", "_run_group")
_OS_STARTER = re.compile(r"os\.((fork|exec|spawn|posix_spawn)\w*|system|popen)")


def process_starts(root=SRC) -> list[str]:
    """``module:line name`` of every process starter in ``root/*.py``
    outside its owner: an import of ``subprocess`` or of a name from it
    outside the module of ``_PROCESS_OWNER``, a use of ``Popen`` outside
    that function, and anywhere an ``os`` function that forks, execs or
    spawns (``fork*``, ``exec*``, ``spawn*``, ``posix_spawn*``, ``system``,
    ``popen``), reached through ``os``, an alias of it or an import from
    it.  Per module in walk order."""
    found = []
    for p in sorted(root.glob("*.py")):
        tree = ast.parse(p.read_text(), str(p))
        os_names = {"os"} | {a.asname for n in ast.walk(tree) if isinstance(n, ast.Import)
                             for a in n.names if a.name == "os" and a.asname}
        for stmt in tree.body:
            owner = (p.stem, getattr(stmt, "name", None))
            for n in ast.walk(stmt):
                imports = isinstance(n, (ast.Import, ast.ImportFrom))
                if isinstance(n, ast.Import):
                    names = [a.name for a in n.names]
                elif isinstance(n, ast.ImportFrom):
                    names = [f"{n.module}.{a.name}" for a in n.names]
                elif isinstance(n, ast.Attribute):
                    through_os = isinstance(n.value, ast.Name) and n.value.id in os_names
                    names = [f"os.{n.attr}" if through_os else n.attr]
                else:
                    names = [n.id] if isinstance(n, ast.Name) else []
                found += [f"{p.stem}:{n.lineno} {name}" for name in names if (
                    _OS_STARTER.fullmatch(name)
                    or (imports and "subprocess" in name.split(".")
                        and p.stem != _PROCESS_OWNER[0])
                    or (name == "Popen" and owner != _PROCESS_OWNER))]
    return found


def test_processes_start_in_one_place():
    assert process_starts() == []


def test_process_scan_finds_a_second_starter(tmp_path):
    (tmp_path / "core.py").write_text(
        "import os, subprocess\n"
        "def _run_group(argv):\n    return subprocess.Popen(argv, start_new_session=True)\n"
        "def _other(argv):\n    return subprocess.Popen(argv)\n"
        "def _fine():\n    return os.getpid(), os.environ, os.systems\n")
    (tmp_path / "pipeline.py").write_text(
        "import subprocess\n"
        "import subprocess as sp\n"
        "from subprocess import run\n"
        "def go(argv):\n    return sp.run(argv), run(argv)\n")
    (tmp_path / "nifti.py").write_text(
        "import os\n"
        "from os import fork, getcwd, posix_spawnp\n"
        "def go(a):\n"
        "    os.fork(); os.forkpty(); os.execv(a[0], a); os.execlp(a[0], *a)\n"
        "    os.spawnl(os.P_WAIT, a[0], *a); os.posix_spawn(a[0], a, {})\n"
        "    return os.system(a[0]), os.popen(a[0]), getcwd(), fork, posix_spawnp\n")
    (tmp_path / "geometry.py").write_text(
        "import os as o\n"
        "from asyncio import subprocess\n"
        "def go(a):\n    return o.spawnv(o.P_WAIT, a[0], a), subprocess.PIPE\n")
    assert process_starts(tmp_path) == [
        "core:5 Popen",
        "geometry:2 asyncio.subprocess", "geometry:4 os.spawnv",
        "nifti:2 os.fork", "nifti:2 os.posix_spawnp",
        "nifti:4 os.fork", "nifti:4 os.forkpty", "nifti:4 os.execv", "nifti:4 os.execlp",
        "nifti:5 os.spawnl", "nifti:5 os.posix_spawn",
        "nifti:6 os.system", "nifti:6 os.popen",
        "pipeline:1 subprocess", "pipeline:2 subprocess", "pipeline:3 subprocess.run",
    ]


# The one place that may import scipy: the KD-tree helper, imported lazily
# because scipy.spatial adds tens of MB and hundreds of ms to a process.
_SCIPY_OWNER = ("metrics", "_kd_tree")


def scipy_imports(root=SRC) -> list[str]:
    """``module:line name`` of every import of ``scipy`` or a submodule of
    it in ``root/*.py``, as a statement or as a string (``importlib`` takes
    it so), outside the module-level function ``_SCIPY_OWNER``."""
    found = []
    for p in sorted(root.glob("*.py")):
        for stmt in ast.parse(p.read_text(), str(p)).body:
            owner = (p.stem, getattr(stmt, "name", None))
            for n in ast.walk(stmt):
                names = ([a.name for a in n.names] if isinstance(n, ast.Import) else
                         [n.module or ""] if isinstance(n, ast.ImportFrom) else
                         [n.value] if isinstance(n, ast.Constant) and isinstance(n.value, str)
                         else [])
                found += [f"{p.stem}:{n.lineno} {name}" for name in names
                          if name.split(".")[0] == "scipy" and owner != _SCIPY_OWNER]
    return found


def test_scipy_loads_in_one_place():
    assert scipy_imports() == []


def test_scipy_scan_finds_a_second_import(tmp_path):
    (tmp_path / "metrics.py").write_text(
        "def _kd_tree(a):\n"
        "    from scipy.spatial import cKDTree\n    return cKDTree(a).query\n"
        "def _label(m):\n    from scipy import ndimage\n    return ndimage.label(m)\n")
    (tmp_path / "geometry.py").write_text(
        "import importlib\n"
        "import scipy.ndimage as ndi\n"
        "def f():\n    return importlib.import_module('scipy.spatial')\n"
        "scipy_ok = 'not scipy'\n")
    assert scipy_imports(tmp_path) == ["geometry:2 scipy.ndimage", "geometry:4 scipy.spatial",
                                       "metrics:5 scipy"]


# What a NIfTI-1 header holds, its int16 dim and float32 pixdim, is stated
# once: by the grid rule in core.
_HEADER_LIMITS = {"np.iinfo(np.int16)", "np.finfo(np.float32)"}


def header_limit_uses(root=SRC) -> list[str]:
    """``module:line call`` of every call in ``_HEADER_LIMITS`` in
    ``root/*.py`` outside core, in line order per module."""
    found = []
    for p in sorted(root.glob("*.py")):
        if p.stem == "core":
            continue
        calls = [(n.lineno, ast.unparse(n)) for n in ast.walk(ast.parse(p.read_text(), str(p)))
                 if isinstance(n, ast.Call)]
        found += [f"{p.stem}:{line} {call}" for line, call in sorted(calls)
                  if call in _HEADER_LIMITS]
    return found


def test_header_limits_are_stated_once():
    assert header_limit_uses() == []


def test_header_limit_scan_finds_a_second_statement(tmp_path):
    (tmp_path / "core.py").write_text(
        "import numpy as np\n"
        "_GRID = (np.iinfo(np.int16).max, float(np.finfo(np.float32).max))\n")
    (tmp_path / "geometry.py").write_text(
        "import numpy as np\n"
        "_FLOAT32_MAX = float(np.finfo(np.float32).max)\n"
        "_EPS = np.finfo(np.float64).eps  # np.finfo(np.float32) is core's\n")
    (tmp_path / "nifti.py").write_text(
        "import numpy as np\n"
        "_MAX_DIM = int(np.iinfo(np.int16).max)\n"
        "_LIMITS = 'np.iinfo(np.int16)', np.iinfo(np.int64)\n")
    assert header_limit_uses(tmp_path) == ["geometry:2 np.finfo(np.float32)",
                                           "nifti:2 np.iinfo(np.int16)"]


def _passed(call: ast.Call, names) -> tuple[str, float, set[str | None]] | None:
    """(callee, positional arguments, keywords) of ``call`` when it calls a
    name in ``names``: directly (``f(...)``, ``core.f(...)``) or through
    ``partial(f, ...)`` or ``ctx.run(f, ...)``.  A ``*args`` counts as
    every position and a ``**kwargs`` as the keyword None."""
    func, args = call.func, call.args
    if ast.unparse(func).rsplit(".", 1)[-1] in ("partial", "run") and args:
        func, args = args[0], args[1:]
    callee = ast.unparse(func).rsplit(".", 1)[-1]
    if callee not in names:
        return None
    count = math.inf if any(isinstance(a, ast.Starred) for a in args) else len(args)
    return callee, count, {k.arg for k in call.keywords}


def unused_private_parameters(root=SRC) -> list[str]:
    """``module.function(parameter)`` of every defaulted parameter of a
    module-level private function in ``root/*.py`` that no call there
    passes, by position or keyword, directly or through ``partial`` or
    ``ctx.run``.  Calls match functions by name, whatever their module."""
    trees = [(p.stem, ast.parse(p.read_text(), str(p))) for p in sorted(root.glob("*.py"))]
    functions = [(module, f) for module, tree in trees for f in tree.body
                 if isinstance(f, ast.FunctionDef) and f.name.startswith("_")
                 and not f.name.endswith("__")]
    names = {f.name for _, f in functions}
    passed = {}  # name -> (most positional arguments, keywords)
    for _, tree in trees:
        for n in ast.walk(tree):
            if isinstance(n, ast.Call) and (got := _passed(n, names)):
                callee, count, keywords = got
                most, known = passed.get(callee, (0, set()))
                passed[callee] = (max(most, count), known | keywords)
    found = []
    for module, f in functions:
        positional = [a.arg for a in f.args.posonlyargs + f.args.args]
        first = len(positional) - len(f.args.defaults)
        defaulted = [(a, i) for i, a in enumerate(positional) if i >= first] + [
            (a.arg, math.inf) for a, d in zip(f.args.kwonlyargs, f.args.kw_defaults)
            if d is not None]
        most, keywords = passed.get(f.name, (0, set()))
        found += [f"{module}.{f.name}({a})" for a, i in defaulted
                  if i >= most and a not in keywords and None not in keywords]
    return found


def test_every_private_default_is_passed():
    assert unused_private_parameters() == []


def test_private_parameter_scan_finds_a_default_nobody_passes(tmp_path):
    (tmp_path / "core.py").write_text(
        "def _slabs(shape, most=None, voxels=1):\n    return shape\n"
        "def _run(f, n=1, *, k=2, m=3):\n    return f\n"
        "def _spread(a, b=1, c=2):\n    return a\n"
        "def _named(a=1):\n    return a\n"
        "def public(x=1):\n    return x\n")
    (tmp_path / "mclahe.py").write_text(
        "from functools import partial\n"
        "def go(ctx, t, kw):\n"
        "    _slabs(t, voxels=4)\n"
        "    partial(_run, t, 2)\n"
        "    ctx.run(_run, t, k=5)\n"
        "    _spread(*t)\n"
        "    return core._named(**kw)\n")
    assert unused_private_parameters(tmp_path) == ["core._slabs(most)", "core._run(m)"]
