"""Core voxel-grid types shared across the toolkit.

Volumes and label maps are axis-aligned 3D grids indexed (x, y, z) with a
physical spacing in mm per axis.  Placements record how a child grid (a
padded or cropped window) maps back into its parent grid.
Public constructors check their input, each grid and orientation block by
the one grid rule (``_GRID``); ``_derived`` builds results from checked values.
``_in_parallel`` is the one way the package runs work side by side, and
``_run_group`` the one way it starts, waits for, kills and reaps a backend;
the ownership table of ``tests/test_source.py`` (``OWNERSHIP``) enforces both.
"""
from __future__ import annotations

import ctypes
import dataclasses
import json
import math
import numbers
import operator
import os
import select
import signal
import subprocess
import threading
import typing
from collections import deque
from contextlib import contextmanager, suppress
from contextvars import ContextVar, copy_context
from dataclasses import dataclass, field
from typing import Callable, Mapping, Sequence

import numpy as np

# Voxels per slab in every streamed full-grid pass: a slab's float64 or
# intp temporary (512 KiB) stays cache-resident, and the working set of a
# stage is its input, its output and a few slabs.  Speed is flat from
# 2**13 to 2**17.
_SLAB_VOXELS = 1 << 16

__all__ = [
    "BiatriumError",
    "NiftiFormatError",
    "EmptyMaskError",
    "BackendError",
    "ConfigError",
    "DEFAULT_CLASS_MAP",
    "BINARY_CLASS_MAP",
    "Volume",
    "LabelMap",
    "BBox",
    "Placement",
    "check_class_map",
    "check_label_codes",
    "from_json",
]


class BiatriumError(Exception):
    """Base class for toolkit errors."""


class NiftiFormatError(BiatriumError):
    """File does not conform to the supported NIfTI-1 subset."""


class EmptyMaskError(BiatriumError):
    """A mask contains no voxels of the requested classes."""


class BackendError(BiatriumError):
    """A segmenter backend failed or produced unusable output."""


class ConfigError(BiatriumError, ValueError):
    """A configuration document or object is invalid."""


#: Default label codes.  The challenge convention for which integer encodes
#: wall vs left/right atrium is not fixed anywhere authoritative, so the map
#: is configurable wherever labels are consumed; this is the assumed default.
DEFAULT_CLASS_MAP: Mapping[str, int] = {
    "background": 0,
    "wall": 1,
    "right_atrium": 2,
    "left_atrium": 3,
}

#: Class map for the coarse (binary) stage.
BINARY_CLASS_MAP: Mapping[str, int] = {"background": 0, "foreground": 1}


def check_class_map(obj) -> dict[str, int]:
    """Return ``obj`` as a dict after checking that it maps names to int codes in [0, 255]."""
    if not isinstance(obj, Mapping):
        raise ConfigError(f"class_map must be an object, got {obj!r}")
    for name, code in obj.items():
        if not isinstance(name, str):
            raise ConfigError(f"class_map names must be strings, got {name!r}")
        _check_number(code, f"class_map[{name!r}]", integer=True, ge=0, le=255)
    return dict(obj)


def check_label_codes(labels: LabelMap, classes: Mapping[str, int] | None = None) -> LabelMap:
    """Return ``labels`` if each code it holds is 0 or a code of ``classes``
    (None: DEFAULT_CLASS_MAP); otherwise raise ValueError naming the rest."""
    codes = set((DEFAULT_CLASS_MAP if classes is None else classes).values()) | {0}
    # every code lies in [0, max]: when all of those are allowed, nothing is
    # left to count
    if codes.issuperset(range(int(labels.data.max()) + 1)):
        return labels
    bad = [c for c in _codes_present(labels.data) if c not in codes]
    if bad:
        raise ValueError(f"label values {bad} not in declared class codes {sorted(codes)}")
    return labels


def _slabs(shape, voxels: int = _SLAB_VOXELS) -> list[slice]:
    """Slices cutting axis 0 of a grid of ``shape`` into slabs of about
    ``voxels`` voxels, at least one row thick."""
    n = shape[0]
    step = max(1, voxels // max(1, math.prod(shape[1:])))
    return [slice(i, min(i + step, n)) for i in range(0, n, step)]


#: Most threads one case uses.  Each thread holds its own slab-sized
#: temporaries, so a pass shared out over threads cuts smaller slabs.
_MAX_CASE_THREADS = 4
#: Threads each case may use.  _in_parallel sets it for the tasks of a
#: batch, and its helpers inherit it; where it is unset (a library call),
#: a case has the whole machine.
_case_threads: ContextVar[int] = ContextVar("_case_threads")


def _thread_budget(cases: int = 1) -> int:
    """Threads per case while ``cases`` cases run at once: the CPUs this
    process may use shared out, at least 1 and at most ``_MAX_CASE_THREADS``."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(_MAX_CASE_THREADS, (cpus or 1) // cases))


def _threads() -> int:
    """Threads the running case may use."""
    return _case_threads.get(0) or _thread_budget()


# Process groups of the running external backends, whichever thread
# started them: an interrupt reaches the whole process, so while one waits
# in _in_parallel, every group here is killed and dropped, and _run_group,
# finding its group dropped, raises in turn.
_live_groups: set[int] = set()
_live_lock = threading.Lock()


def _killpg(pgid: int) -> None:
    with suppress(ProcessLookupError):
        os.killpg(pgid, signal.SIGKILL)


def _kill_live_groups() -> None:
    """SIGKILL every registered backend process group and drop it from the
    registry, which tells the thread that started it that it was killed."""
    with _live_lock:
        for pgid in _live_groups:
            _killpg(pgid)
        _live_groups.clear()


def _run_group(argv: Sequence[str], stderr_path, timeout_s: float) -> None:
    """Run the backend ``argv`` as the leader of a session of its own, so
    that it and every process it starts form one registered process group;
    stdout is dropped and stderr written to ``stderr_path``.  The wait is on
    a pidfd, which wakes as the backend exits (``Popen.wait``, the fallback,
    polls with sleeps up to 50 ms).  However it ends, one ``finally`` kills
    the group, so none of it outlives the call, reaps the backend, and only
    then drops the group from the registry.  Raises KeyboardInterrupt if an
    interrupt dropped the group, and BackendError if the backend cannot
    start, times out or exits nonzero (with its last 2000 stderr bytes)."""
    proc = None
    try:
        with open(stderr_path, "wb") as err:
            try:
                proc = subprocess.Popen(argv, stdout=subprocess.DEVNULL, stderr=err,
                                        start_new_session=True)
            except OSError as e:
                raise BackendError(f"backend command could not start: {e}") from e
        with _live_lock:
            _live_groups.add(proc.pid)
        try:
            fd = os.pidfd_open(proc.pid)
        except (AttributeError, OSError):
            proc.wait(timeout=timeout_s)
        else:
            try:
                exited = select.poll()
                exited.register(fd, select.POLLIN)  # readable at the exit
                if not exited.poll(math.ceil(timeout_s * 1000)):
                    raise subprocess.TimeoutExpired(argv, timeout_s)
            finally:
                os.close(fd)
    except subprocess.TimeoutExpired as e:
        raise BackendError(f"backend command timed out after {timeout_s:g} s") from e
    finally:
        if proc is not None:
            _killpg(proc.pid)
            try:
                proc.wait()
            finally:
                with _live_lock:
                    # gone from the registry: an interrupt killed the group
                    interrupted = proc.pid not in _live_groups
                    _live_groups.discard(proc.pid)
    if interrupted:
        # as if the interrupt had reached this thread: the case has no result
        raise KeyboardInterrupt("backend killed by an interrupt")
    if proc.returncode != 0:
        with open(stderr_path, "rb") as err:
            err.seek(max(0, os.fstat(err.fileno()).st_size - 2000))
            tail = err.read().decode(errors="replace")
        raise BackendError(f"backend command exited with {proc.returncode}; stderr: {tail!r}")


def _in_parallel(tasks: Sequence[Callable[[], object]], threads: int | None = None) -> list:
    """Call every zero-argument callable of ``tasks``; return the results in
    task order.  The one place the package starts threads.

    ``threads`` threads (None: the case's budget), the calling thread among
    them, each take the next task not yet taken; none starts after a task
    raises or an interrupt arrives.  Every thread runs its tasks in a copy
    of the caller's context, so the case's budget follows them.  Given
    ``threads``, the tasks are a batch of cases: the copy's budget is the
    CPUs shared out over the threads that run, and the caller's own context
    never sees it.  Every helper is joined,
    through repeated interrupts too; while an interrupt waits, every
    registered backend group is killed, and again each 0.1 s.  Then the
    interrupt, or else the earliest failed task's failure, is raised."""
    n = max(1, min(len(tasks), threads or _threads()))
    todo = deque(range(len(tasks)))  # popleft and clear are atomic
    results: list = [None] * len(tasks)
    errors: dict[int, BaseException] = {}
    finished = [threading.Event() for _ in range(n - 1)]
    ctx = copy_context()
    if threads:
        ctx.run(_case_threads.set, _thread_budget(n))

    def work(catch: type[BaseException], done: threading.Event | None = None) -> None:
        try:
            with suppress(IndexError):  # from popleft, once every task is taken
                while True:
                    i = todo.popleft()
                    try:
                        results[i] = tasks[i]()
                    except catch as e:  # raised again by the calling thread
                        errors[i] = e
                        todo.clear()
        finally:
            if done is not None:
                done.set()

    helpers = []
    stop = None  # an interrupt, or a helper that could not start
    try:
        for done in finished:
            # listed before it starts, so an interrupt cannot miss its join
            helpers.append(threading.Thread(target=ctx.copy().run,
                                            args=(work, BaseException, done)))
            helpers[-1].start()
        ctx.run(work, Exception)  # not an interrupt: that leaves after the joins
    except BaseException as e:
        stop = e
        todo.clear()
    for thread, done in zip(helpers, finished):
        while thread.is_alive():
            try:
                if stop is None or isinstance(stop, Exception):
                    done.wait()
                else:  # an interrupt: no helper may wait on a backend
                    _kill_live_groups()
                    if not done.wait(0.1):
                        continue
                # join() alone does not do: an interrupt that breaks it
                # marks the thread stopped while it still runs
                thread.join()
            except BaseException as e:  # keep joining; raised after the last
                stop = e
    failure = stop or next((errors[i] for i in sorted(errors)), None)
    if failure is None:
        return results
    # the failure's traceback will hold this frame, so the frame lets go of
    # the failure: a cycle would keep the caller's arrays alive until the
    # next garbage collection
    errors.clear()
    stop = None
    try:
        raise failure
    finally:
        failure = None


# glibc's malloc_trim and mallopt, None where the C library has none.  By
# default glibc raises its mmap threshold to each mmapped block it frees,
# moving grids into the heap of the thread that made them.  A helper's heap
# keeps its touched top through malloc_trim, and how far it grew hung on
# where small blocks freed across threads sat: 86 or 92-95 MB on batch_small.
# With the threshold fixed, every grid is unmapped as it is freed, so a
# batch trims once, before its first case.
try:
    _malloc_trim, _mallopt = ctypes.CDLL(None).malloc_trim, ctypes.CDLL(None).mallopt
    _malloc_trim.argtypes = [ctypes.c_size_t]
    _malloc_trim.restype = ctypes.c_int
except (AttributeError, OSError, TypeError):
    _malloc_trim = None


def _release_free_heap() -> None:
    """Give the free memory of every malloc arena back to the OS, so the
    process holds no more than it still uses, and map each block of 8 MB
    or more on its own from now on; the one place that touches the
    allocator, called once per batch, before its first case.  Does nothing
    where the C library has no malloc_trim."""
    if _malloc_trim is not None:
        _mallopt(-3, 8 << 20)  # M_MMAP_THRESHOLD, fixed from here on
        # M_TRIM_THRESHOLD: fixing the mmap threshold also freezes this one
        # at 128 KiB, so each free at the top of the main heap gave it back
        # and the next allocation faulted it in again (MCLAHE: 200k faults
        # per paper case); a free top of the heap below 8 MB now stays for
        # the next allocation
        _mallopt(-1, 8 << 20)
        _malloc_trim(0)


def _codes_present(data: np.ndarray) -> list[int]:
    """The codes in the uint8 array ``data``, ascending: a 256-bin count,
    about twice as fast as the sort in ``np.unique``.  bincount widens its
    input to intp, 8 bytes per voxel, so it counts one x-slab at a time."""
    counts = np.zeros(256, dtype=np.intp)
    for s in _slabs(data.shape):
        counts += np.bincount(data[s].ravel(), minlength=256)
    return np.flatnonzero(counts).tolist()


_OPERATORS = {"gt": ">", "ge": ">=", "lt": "<", "le": "<="}

# The one grid rule, what a NIfTI-1 header can hold: 1..32767 voxels per
# axis (int16 dim), spacings positive and finite as float32 (pixdim), and
# an orientation block of 80 bytes (qfac, then the qform/sform fields).
_FLOAT32_MAX = float(np.finfo(np.float32).max)
_GRID = {int: {"ge": 1, "le": int(np.iinfo(np.int16).max)},
         float: {"ge": float(np.finfo(np.float32).smallest_subnormal), "le": _FLOAT32_MAX}}


def _must_be(name: str, kind: str, bounds, value) -> ConfigError:
    limits = " and ".join(f"{_OPERATORS[op]} {b}" for op, b in bounds.items())
    return ConfigError(f"{name} must be {kind} {limits}".rstrip() + f", got {value!r}")


def _check_number(value, name: str, integer: bool = False, **bounds):
    """Return ``value`` if it is a finite number (with ``integer``, an int)
    within ``bounds`` (any of gt, ge, lt, le); otherwise raise a ConfigError
    naming ``name``.  The one rule for every number that arrives from
    outside: an int is a ``numbers.Integral``, a real is a ``numbers.Real``
    that converts to a finite float, and bools and strings are neither."""
    try:
        ok = (isinstance(value, numbers.Integral if integer else numbers.Real)
              and not isinstance(value, bool)
              and (integer or math.isfinite(value))
              and all(getattr(operator, op)(value, b) for op, b in bounds.items()))
    except OverflowError:  # an int too large for a float
        ok = False
    if not ok:
        raise _must_be(name, "an int" if integer else "a finite number", bounds, value)
    return value


def _as_triple(value, name: str, kind=int, positive: bool = True, grid: bool = False) -> tuple:
    """``value`` as a tuple of 3 ``kind`` numbers, each passing
    ``_check_number`` and > 0 unless ``positive`` is false, or with ``grid``
    within the grid rule.  The one check of every grid triple: shapes,
    factors, windows, spacings, radii, offsets and box bounds."""
    bounds = _GRID[kind] if grid else {"gt": 0} if positive else {}
    if not isinstance(value, (str, bytes)):  # "888" is not (8, 8, 8)
        with suppress(TypeError, ValueError, OverflowError):
            t = tuple(value)
            if len(t) == 3:
                return tuple(kind(_check_number(v, name, integer=kind is int, **bounds))
                             for v in t)
    raise _must_be(name, "3 ints" if kind is int else "3 finite numbers", bounds, value)


def _grid(arr: np.ndarray, spacing, what: str, orientation: bytes | None = None) -> tuple:
    """``spacing`` as a triple, once it, ``arr``'s shape and ``orientation`` keep the grid rule."""
    if arr.ndim != 3:
        raise ValueError(f"{what} must be 3D, got {arr.ndim}D")
    _as_triple(arr.shape, f"{what} shape", grid=True)
    if not (orientation is None or isinstance(orientation, bytes) and len(orientation) == 80):
        got = f"{len(orientation)} bytes" if isinstance(orientation, bytes) else repr(orientation)
        raise ConfigError(f"orientation block has wrong size: must be None or 80 bytes, got {got}")
    return _as_triple(spacing, "spacing", float, grid=True)


@contextmanager
def _atomic_open(path, mode: str, **kwargs):
    """Open a temporary file beside ``path`` for writing; on a clean exit it
    replaces ``path``, on any exception it is removed.  Readers of ``path``
    see the old file or the whole new one, never a partial write.  The
    temporary name carries the process and thread id, so threads writing
    the same path never share one."""
    tmp = f"{os.fspath(path)}.tmp{os.getpid()}-{threading.get_ident()}"
    try:
        with open(tmp, mode, **kwargs) as f:
            yield f
        os.replace(tmp, path)
    except BaseException:
        with suppress(FileNotFoundError):
            os.remove(tmp)
        raise


def _as_json(obj) -> dict:
    """The dataclass ``obj`` as a JSON-ready dict in field order, tuples as lists."""
    return dataclasses.asdict(obj, dict_factory=lambda items: {
        k: list(v) if isinstance(v, tuple) else v for k, v in items})


def _read_json(path):
    """The parsed UTF-8 JSON file ``path``; a file that is not UTF-8, not
    JSON or nested too deep to parse is a ConfigError naming it."""
    with open(path, "r", encoding="utf-8") as f:
        try:
            return json.load(f)
        except (UnicodeDecodeError, json.JSONDecodeError, RecursionError) as e:
            raise ConfigError(f"{path}: invalid JSON: {e}") from e


def _write_json(doc, path) -> None:
    """The one writer of JSON sidecars: ``doc``, indented 2, plus a newline."""
    with _atomic_open(path, "w", encoding="utf-8") as f:
        json.dump(doc, f, indent=2)
        f.write("\n")


def _set(obj, **fields):
    """``obj`` with its ``fields`` set, arrays made read-only."""
    for name, value in fields.items():
        if isinstance(value, np.ndarray):
            value.flags.writeable = False
        object.__setattr__(obj, name, value)
    return obj


def _derived(cls, **fields):
    """``cls`` of checked ``fields``, arrays made read-only, skipping ``__post_init__``."""
    return _set(object.__new__(cls), **fields)


@dataclass(frozen=True, eq=False)
class Volume:
    """Dense 3D scalar field, float32, indexed (x, y, z).

    The container takes ownership of ``data``: the array is marked read-only
    on construction (no copy when the dtype already matches).
    """

    data: np.ndarray
    spacing: tuple[float, float, float]
    #: Opaque orientation header bytes (qfac, then the qform/sform fields)
    #: carried through read/write untouched.
    orientation: bytes | None = field(default=None, repr=False)

    def __post_init__(self):
        arr = np.asarray(self.data, dtype=np.float32)
        spacing = _grid(arr, self.spacing, "volume data", self.orientation)
        # min and max propagate NaN and +-inf, so no per-voxel mask is needed
        if not (np.isfinite(arr.min()) and np.isfinite(arr.max())):
            raise ValueError("volume data contains non-finite values")
        _set(self, data=arr, spacing=spacing)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True, eq=False)
class LabelMap:
    """Dense 3D label field, uint8, same geometry conventions as Volume."""

    data: np.ndarray
    spacing: tuple[float, float, float]

    def __post_init__(self):
        arr = np.asarray(self.data)
        spacing = _grid(arr, self.spacing, "label data")
        if arr.dtype != np.uint8:
            if not np.issubdtype(arr.dtype, np.integer):
                raise ValueError(f"label data must be integer, got {arr.dtype}")
            if arr.min() < 0 or arr.max() > 255:
                raise ValueError("label values out of uint8 range")
            arr = arr.astype(np.uint8)
        _set(self, data=arr, spacing=spacing)

    @property
    def shape(self) -> tuple[int, int, int]:
        return self.data.shape


@dataclass(frozen=True)
class BBox:
    """Axis-aligned voxel box with inclusive lo, exclusive hi bounds."""

    lo: tuple[int, int, int]
    hi: tuple[int, int, int]

    def __post_init__(self):
        _set(self, lo=_as_triple(self.lo, "lo", positive=False),
             hi=_as_triple(self.hi, "hi", positive=False))
        for a in range(3):
            if not (0 <= self.lo[a] < self.hi[a]):
                raise ValueError(f"invalid bbox bounds on axis {a}: [{self.lo[a]}, {self.hi[a]})")

    @property
    def shape(self) -> tuple[int, int, int]:
        return tuple(h - l for l, h in zip(self.lo, self.hi))


@dataclass(frozen=True)
class Placement:
    """Maps a child grid into its parent: child voxel i sits at parent
    voxel ``offset + i``.  Negative offsets mean the child extends past the
    parent (padding)."""

    parent_shape: tuple[int, int, int]
    offset: tuple[int, int, int]
    window_shape: tuple[int, int, int]

    def __post_init__(self):
        _set(self, parent_shape=_as_triple(self.parent_shape, "parent_shape", grid=True),
             offset=_as_triple(self.offset, "offset", positive=False),
             window_shape=_as_triple(self.window_shape, "window_shape", grid=True))


def from_json(cls, obj, where: str = ""):
    """Build the config dataclass ``cls`` from a parsed JSON object.

    The keys are the field names, or ``metadata["json"]`` where a field sets
    it; unknown keys and missing required keys are errors.  Fields typed as
    a dataclass, an optional dataclass or ``tuple[<dataclass>, ...]`` are
    built recursively; every other value goes to ``cls`` unchanged, whose
    ``__post_init__`` validates it.  Errors are ConfigErrors naming the key
    path (``where`` is the path of ``obj`` itself).
    """
    if not isinstance(obj, dict):
        raise ConfigError(f"{where or 'config root'} must be an object")
    hints = typing.get_type_hints(cls)
    fields = {f.metadata.get("json", f.name): f for f in dataclasses.fields(cls)}
    unknown = sorted(set(obj) - set(fields))
    if unknown:
        raise ConfigError(f"unknown config key {_key_path(where, unknown[0])}")
    kwargs = {}
    for key, f in fields.items():
        if key in obj:
            kwargs[f.name] = _field_from_json(hints[f.name], obj[key], _key_path(where, key))
        elif f.default is dataclasses.MISSING and f.default_factory is dataclasses.MISSING:
            raise ConfigError(f"{where or 'config'} is missing required key {key!r}")
    try:
        return cls(**kwargs)
    except (TypeError, ValueError) as e:
        raise ConfigError(f"{where}: {e}" if where else str(e)) from e


def _read_config(cls, path):
    """``from_json(cls, ...)`` of the JSON file ``path``; its errors start
    with the file's path, once (``_read_json``'s already do)."""
    doc = _read_json(path)
    try:
        return from_json(cls, doc)
    except ConfigError as e:
        raise ConfigError(f"{path}: {e}") from e


def _key_path(where: str, key: str) -> str:
    return f"{where}.{key}" if where else key


def _field_from_json(tp, value, where: str):
    args = typing.get_args(tp)
    if value is None and type(None) in args:
        return None
    if typing.get_origin(tp) is tuple and args[1:] == (...,) and dataclasses.is_dataclass(args[0]):
        if not isinstance(value, list):
            raise ConfigError(f"{where} must be a list")
        return tuple(from_json(args[0], v, f"{where}[{i}]") for i, v in enumerate(value))
    for t in (tp, *args):
        if dataclasses.is_dataclass(t):
            return from_json(t, value, where)
    return value
