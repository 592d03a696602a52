"""Checks on the package source itself, run in place of a linter."""
import ast
import functools
import math
import pathlib
import re

import pytest

TESTS = pathlib.Path(__file__).resolve().parent
SRC = TESTS.parent / "src" / "biatrium"


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
    assert unused_imports() + unused_imports(TESTS) == []


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


# Who owns what.  Each row: a pattern over the whole of a use as ``uses`` writes it, its
# owners (a module, or a module and one of its module-level functions or classes) and,
# where one is pinned, the most uses they may make.  ``(.*\.)?`` is "however reached".
OWNERSHIP = {
    # Volume(...) checks at the boundary, for files (nifti) and phantoms;
    # what is derived from checked values goes through core._derived, the one bypass.
    "volume": (r"call (.*\.)?Volume\(.*", {"core", "nifti", "phantom"}, None),
    "bypass": (r"read object\.__new__", {"core"}, None),
    # Threads start in the one helper that runs work side by side, a case's and a batch's.
    "threads": (r"read (.*\.)?(Thread|ThreadPoolExecutor)", {("core", "_in_parallel")}, None),
    # Each batch-wide decision has one owner: _in_parallel sets the thread
    # budget of a batch's cases, and run_pipeline trims the heap, once.
    "case_threads": (r"read (.*\.)?_case_threads\.set", {("core", "_in_parallel")}, 1),
    "heap_trim": (r"read (.*\.)?_release_free_heap", {("pipeline", "run_pipeline")}, 1),
    # The one module that touches the C allocator, through ctypes.
    "ctypes": (r"(import|read|str) ctypes(\..*)?", {"core"}, None),
    # Processes start in the one function that owns a backend's process
    # group, start to reap, and never by an os fork, exec or spawn.
    "subprocess": (r"import (.*\.)?subprocess(\..*)?", {"core"}, None),
    "popen": (r"read (.*\.)?Popen", {("core", "_run_group")}, None),
    "spawn": (r"(import|read) os\.((fork|exec|spawn|posix_spawn)\w*|system|popen)", set(), None),
    # scipy loads in one place, the KD-tree helper, and lazily: importing
    # scipy.spatial adds tens of MB and hundreds of ms to a process.
    "scipy": (r"(import|str) scipy(\..*)?", {("metrics", "_kd_tree")}, None),
    # What a NIfTI-1 header holds (int16 dim, float32 pixdim) is stated once, by core's grid rule.
    "header_limits": (r"call np\.(iinfo\(np\.int16|finfo\(np\.float32)\)", {"core"}, None),
    # One rule for what a valid number is, core._check_number.
    "numbers": (r"import numbers(\..*)?", {"core"}, None),
    # x-fastest order exists on disk only: every other module works in C order.
    "disk_order": (r"keyword order='F'|(import|read) (.*\.)?asfortranarray", {"nifti"}, None),
    # One writer of JSON sidecars.
    "json_dump": (r"(import|read) json\.dump", {("core", "_write_json")}, None),
    # Artifacts are written atomically: one temporary file replaces a path.
    "rename": (r"(import|read) os\.(replace|rename)", {("core", "_atomic_open")}, None),
    # Files are refused in one module, the one test_nifti.py's REFUSALS reads
    # them through: core only defines NiftiFormatError, and pipeline only catches it.
    "file_refusals": (r"call (.*\.)?NiftiFormatError\(.*", {"nifti"}, None),
    # Backends are refused in the three functions that run them, the ones
    # test_pipeline.py's CASE_FAULTS reaches through run_case.
    "backend_refusals": (r"call (.*\.)?BackendError\(.*", {
        ("core", "_run_group"), ("pipeline", "invoke_backend"), ("pipeline", "_run_external")},
        None),
}


def _use(n: ast.AST, aliases: dict[str, str]) -> list[str]:
    """The uses node ``n`` makes, as ``uses`` writes them."""
    if isinstance(n, ast.Import):
        return [f"import {a.name}" for a in n.names]
    if isinstance(n, ast.ImportFrom):
        base = "." * n.level + (f"{n.module}." if n.module else "")
        return [f"import {base}{a.name}" for a in n.names]
    if isinstance(n, ast.Call):
        return [f"call {ast.unparse(n)}"]
    if isinstance(n, ast.keyword):
        return [f"keyword {ast.unparse(n)}"]
    if isinstance(n, (ast.Name, ast.Attribute)):
        head, dot, rest = ast.unparse(n).partition(".")
        return [f"read {aliases.get(head, head)}{dot}{rest}"]
    if isinstance(n, ast.Constant) and isinstance(n.value, str):
        return [f"str {n.value}"]
    return []


def uses(root=SRC):
    """``(module, owner, line, use)`` of every use in ``root/*.py`` in source order,
    ``owner`` being the enclosing module-level function or class or None.  A use is
    ``import a.b`` per name an import binds (``from a import b`` too), ``call f(x)``
    for a whole call, ``keyword k=v`` for a keyword argument, ``read a.b`` for a name
    or attribute (``import a as x``'s ``x`` read as ``a``) and ``str s`` for a string,
    as ``importlib`` takes a module's name."""
    for p in sorted(root.glob("*.py")):
        tree = ast.parse(p.read_text(), str(p))
        aliases = {a.asname: a.name for n in ast.walk(tree) if isinstance(n, ast.Import)
                   for a in n.names if a.asname}
        found = [(n.lineno, n.col_offset, use, getattr(stmt, "name", None))
                 for stmt in tree.body for n in ast.walk(stmt) for use in _use(n, aliases)]
        yield from ((p.stem, owner, line, use) for line, _, use, owner in sorted(found))


def ownership_breaches(root=SRC) -> list[tuple[str, str, str]]:
    """``(row, module:line, use)`` of every use in ``root/*.py`` that a row
    of ``OWNERSHIP`` matches, made outside its owners or past its count."""
    found, owned = [], dict.fromkeys(OWNERSHIP, 0)
    for module, owner, line, use in uses(root):
        for row, (pattern, owners, most) in OWNERSHIP.items():
            if re.fullmatch(pattern, use):
                ours = module in owners or (module, owner) in owners
                owned[row] += ours
                if not ours or most is not None and owned[row] > most:
                    found.append((row, f"{module}:{line}", use))
    return found


_src_breaches = functools.cache(ownership_breaches)


def _breaches_in_src(*rows: str) -> list[tuple[str, str, str]]:
    """The breaches of the package source, of ``rows`` or of every row; the
    source is scanned once, and each rule's test names the rows it checks."""
    return [b for b in _src_breaches() if not rows or b[0] in rows]


def test_every_use_keeps_its_owner():
    assert _breaches_in_src() == []


def test_checks_stay_at_the_boundary():
    assert _breaches_in_src("volume", "bypass") == []


def test_threads_start_in_one_place():
    assert _breaches_in_src("threads") == []


def test_batch_policy_has_one_owner():
    assert _breaches_in_src("case_threads", "heap_trim") == []


def test_ctypes_stays_in_core():
    assert _breaches_in_src("ctypes") == []


def test_processes_start_in_one_place():
    assert _breaches_in_src("subprocess", "popen", "spawn") == []


def test_scipy_loads_in_one_place():
    assert _breaches_in_src("scipy") == []


def test_header_limits_are_stated_once():
    assert _breaches_in_src("header_limits") == []


def test_memory_is_traced_in_one_file():
    """A traced bound is a row of test_memory.py; conftest.py defines traced_peak."""
    found = {(m, use.split()[0]) for m, _, _, use in uses(TESTS) if re.fullmatch(
        r"call (.*\.)?traced_peak\(.*|(import|read) tracemalloc(\..*)?", use)}
    assert found == {("conftest", "import"), ("conftest", "read"), ("test_memory", "call")}


# Each row's plant: the ``module:line`` of each breach the row reports, in
# order, and the modules it writes, whose other uses the row must allow.
PLANTS = {
    "volume": (["geometry:2"], {
        "nifti": "def read(a, s):\n    return Volume(data=a, spacing=s)\n",
        "geometry": "def pad(v):\n    return core.Volume(data=v.data, spacing=v.spacing)\n"}),
    "bypass": (["geometry:2"], {
        "core": "def _derived(cls):\n    return object.__new__(cls)\n",
        "geometry": "def raw(cls):\n    return object.__new__(cls)\n",
        "pipeline": "class C:\n    def f(self):\n        object.__setattr__(self, 'a', 1)\n"}),
    "threads": (["nifti:4", "pipeline:3", "pipeline:5"], {
        "core": "import threading\ndef _in_parallel(f):\n    threading.Thread(target=f).start()\n",
        "pipeline": "from concurrent.futures import ThreadPoolExecutor\n"
                    "def run_pipeline():\n    return ThreadPoolExecutor(2)\n"
                    "def run_case():\n    return ThreadPoolExecutor(1)\n",
        "nifti": "from threading import Thread\n"
                 "class W:\n    def go(self, f):\n        Thread(target=f).start()\n"}),
    "case_threads": (["core:6", "pipeline:2"], {
        "core": "_case_threads = ContextVar('_case_threads')\ndef _in_parallel(tasks, threads):\n"
                "    ctx.run(_case_threads.set, threads)\n    return _case_threads.get(0)\n"
                "def _threads(n):\n    _case_threads.set(n)\n",
        "pipeline": "def run_pipeline(cases):\n    batch.run(core._case_threads.set, 2)\n"}),
    "heap_trim": (["pipeline:4", "pipeline:6"], {
        "core": "def _release_free_heap():\n    pass\n",
        "pipeline": "from .core import _release_free_heap\ndef run_pipeline(cases):\n"
                    "    _release_free_heap()\n    return cases, _release_free_heap()\n"
                    "def run_case(case):\n    core._release_free_heap()\n"}),
    "ctypes": (["nifti:1", "pipeline:3", "pipeline:4"], {
        "core": "import ctypes\ndef _trim():\n    ctypes.CDLL(None).malloc_trim(0)\n",
        "nifti": "import os, ctypes.util\n",
        "pipeline": "import importlib\ndef run():\n    return importlib.import_module('ctypes')\n"
                    "from ctypes import CDLL\n",
        "geometry": "ctypes_ok = 'not ctypes'\ndef f(core):\n    return core.ctypes\n"}),
    "subprocess": (["geometry:1", "pipeline:1", "pipeline:2", "pipeline:3"], {
        "core": "import os, subprocess\n",
        "pipeline": "import subprocess\nimport subprocess as sp\nfrom subprocess import run\n"
                    "def go(argv):\n    return sp.run(argv), run(argv)\n",
        "geometry": "from asyncio import subprocess\ndef go():\n    return subprocess.PIPE\n"}),
    "popen": (["core:4"], {
        "core": "def _run_group(a):\n    return subprocess.Popen(a, start_new_session=True)\n"
                "def _other(a):\n    return subprocess.Popen(a)\n"}),
    "spawn": (["geometry:3", "nifti:2", "nifti:2", "nifti:4", "nifti:4", "nifti:4", "nifti:4",
               "nifti:5", "nifti:5", "nifti:6", "nifti:6"], {
        "core": "import os\ndef _fine():\n    return os.getpid(), os.environ, os.systems\n",
        "nifti": "import os\nfrom os import fork, getcwd, posix_spawnp\ndef go(a):\n"
                 "    os.fork(); os.forkpty(); os.execv(a[0], a); os.execlp(a[0], *a)\n"
                 "    os.spawnl(os.P_WAIT, a[0], *a); os.posix_spawn(a[0], a, {})\n"
                 "    return os.system(a[0]), os.popen(a[0]), getcwd(), fork, posix_spawnp\n",
        "geometry": "import os as o\ndef go(a):\n    return o.spawnv(o.P_WAIT, a[0], a)\n"}),
    "scipy": (["geometry:2", "geometry:4", "metrics:5"], {
        "metrics": "def _kd_tree(a):\n"
                   "    from scipy.spatial import cKDTree\n    return cKDTree(a).query\n"
                   "def _label(m):\n    from scipy import ndimage\n    return ndimage.label(m)\n",
        "geometry": "import importlib\nimport scipy.ndimage as ndi\n"
                    "def f():\n    return importlib.import_module('scipy.spatial')\n"
                    "scipy_ok = 'not scipy'\n"}),
    "header_limits": (["geometry:2", "nifti:2"], {
        "core": "import numpy as np\n"
                "_GRID = (np.iinfo(np.int16).max, float(np.finfo(np.float32).max))\n",
        "geometry": "import numpy as np\n_FLOAT32_MAX = float(np.finfo(np.float32).max)\n"
                    "_EPS = np.finfo(np.float64).eps  # np.finfo(np.float32) is core's\n",
        "nifti": "import numpy as np\n_MAX_DIM = int(np.iinfo(np.int16).max)\n"
                 "_LIMITS = 'np.iinfo(np.int16)', np.iinfo(np.int64)\n"}),
    "numbers": (["geometry:1", "pipeline:1"], {
        "core": "import numbers\n",
        "geometry": "from numbers import Integral\nnumbers = 'numbers'\n",
        "pipeline": "import numbers\n"}),
    "disk_order": (["geometry:3", "metrics:1", "metrics:3"], {
        "nifti": "import numpy as np\ndef disk(a):\n    return np.asfortranarray(a).ravel(order='F')\n",
        "geometry": "import numpy as np\ndef f(a):\n    return np.ascontiguousarray(a, order='C'),"
                    " a.copy(order='F')\n",
        "metrics": "from numpy import asfortranarray\ndef g(a):\n    return asfortranarray(a)\n"}),
    "json_dump": (["core:5", "pipeline:1"], {
        "core": "import json\ndef _write_json(doc, f):\n    json.dump(doc, f, indent=2)\n"
                "def _dump(doc, f):\n    json.dump(doc, f)\n",
        "cli": "import json\nprint(json.dumps({}))\n",
        "pipeline": "from json import dump\n"}),
    "rename": (["nifti:3", "pipeline:1"], {
        "core": "import os\ndef _atomic_open(tmp, path):\n    os.replace(tmp, path)\n"
                "def _drop(tmp):\n    os.remove(tmp)\n",
        "nifti": "import os as o\ndef mv(a, b):\n    o.rename(a, b)\n    b.replace('.', '')\n",
        "pipeline": "from os import replace\n"}),
    "file_refusals": (["geometry:3", "pipeline:5"], {
        "core": "class NiftiFormatError(BiatriumError):\n    pass\n",
        "geometry": "from .core import NiftiFormatError\ndef f(p):\n    return NiftiFormatError(p)\n",
        "nifti": "def read(p):\n    raise NiftiFormatError(f'{p}: bad')\n",
        "pipeline": "def run(read, p):\n    try:\n        return read(p)\n"
                    "    except NiftiFormatError as e:\n        raise core.NiftiFormatError(p) from e\n"}),
    "backend_refusals": (["core:4", "pipeline:9"], {
        "core": "def _run_group(a):\n    raise BackendError(a)\n"
                "def _in_parallel(t):\n    raise core.BackendError(t)\n",
        "pipeline": "def invoke_backend(s):\n    raise BackendError(s)\ndef _run_external(s):\n"
                    "    raise core.BackendError(s)\ndef run_case(c):\n    try:\n        c()\n"
                    "    except BackendError as e:\n        raise BackendError(c) from e\n"}),
}


@pytest.mark.parametrize("row", OWNERSHIP)
def test_ownership_scan_finds_its_plants(tmp_path, row):
    breaches, modules = PLANTS[row]
    for module, text in modules.items():
        (tmp_path / f"{module}.py").write_text(text)
    assert [found[:2] for found in ownership_breaches(tmp_path)] == [(row, b) for b in breaches]


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
    assert unused_private_parameters() + unused_private_parameters(TESTS) == []


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
