import dataclasses
import math
import re
import signal
import sys
import threading
import time
from fractions import Fraction
from functools import partial

import numpy as np
import pytest

from biatrium import (BBox, LabelMap, NiftiFormatError, Placement, Volume, read_labelmap,
                      write_nifti)
from biatrium import core
from biatrium.core import (ConfigError, _check_number, _in_parallel, check_class_map,
                           check_label_codes)

from conftest import thread_budget


def test_volume_accepts_and_freezes_data():
    v = Volume(data=np.zeros((2, 3, 4), dtype=np.float32), spacing=(1, 1, 2.5))
    assert v.shape == (2, 3, 4)
    assert v.spacing == (1.0, 1.0, 2.5)
    with pytest.raises(ValueError):
        v.data[0, 0, 0] = 1.0


def test_volume_converts_dtype():
    v = Volume(data=np.ones((2, 2, 2), dtype=np.int16), spacing=(1, 1, 1))
    assert v.data.dtype == np.float32


@pytest.mark.parametrize("bad", [
    np.zeros((2, 2)),                     # not 3D
    np.full((2, 2, 2), np.nan),           # non-finite
    np.zeros((0, 2, 2)),                  # empty
    np.array([[[0.0, np.nan, 1.0]]]),     # one NaN among finite values
    np.array([[[0.0, np.inf, 1.0]]]),     # one +inf
    np.array([[[0.0, -np.inf, 1.0]]]),    # one -inf
])
def test_volume_rejects_bad_data(bad):
    with pytest.raises(ValueError):
        Volume(data=bad, spacing=(1, 1, 1))


@pytest.mark.parametrize("spacing", [(0, 1, 1), (1, -1, 1), (1, 1), (1, 1, np.inf)])
def test_volume_rejects_bad_spacing(spacing):
    with pytest.raises(ValueError):
        Volume(data=np.zeros((2, 2, 2), dtype=np.float32), spacing=spacing)


@pytest.mark.parametrize("make", [Volume, LabelMap])
@pytest.mark.parametrize("shape, spacing, match", [
    ((2, 2, 2), (1e39, 1, 1), r"^spacing must .*, got \(1e\+39, 1, 1\)$"),     # inf as float32
    ((2, 2, 2), (1e-50, 1, 1), r"^spacing must .*, got \(1e-50, 1, 1\)$"),     # 0 as float32
    ((0, 2, 2), (1, 1, 1), r"data shape must .*, got \(0, 2, 2\)$"),
    ((32768, 1, 1), (1, 1, 1), r"data shape must .*<= 32767, got \(32768, 1, 1\)$"),
], ids=["spacing_1e39", "spacing_1e-50", "axis_0", "axis_32768"])
def test_grids_outside_a_nifti_header_are_refused_where_built(make, shape, spacing, match):
    """A grid no NIfTI-1 header can hold (int16 dim, float32 pixdim) is
    refused by its constructor, naming the field and its value."""
    with pytest.raises(ConfigError, match=match):
        make(data=np.zeros(shape, dtype=np.uint8), spacing=spacing)


@pytest.mark.parametrize("orientation, got", [(b"x" * 76, "76 bytes"), ("x" * 80, repr("x" * 80))],
                         ids=["76_bytes", "str"])
def test_volume_refuses_an_orientation_that_is_not_80_bytes(orientation, got):
    with pytest.raises(ConfigError, match=f"^orientation block .*80 bytes, got {re.escape(got)}$"):
        Volume(data=np.zeros((2, 2, 2), dtype=np.float32), spacing=(1, 1, 1),
               orientation=orientation)
    block = bytes(80)
    assert Volume(data=np.zeros((2, 2, 2)), spacing=(1, 1, 1), orientation=block).orientation is block


def test_placement_refuses_a_window_past_the_int16_dim():
    with pytest.raises(ConfigError, match=r"^window_shape must .*, got \(32768, 8, 8\)$"):
        Placement(parent_shape=(8, 8, 8), offset=(0, 0, 0), window_shape=(32768, 8, 8))
    with pytest.raises(ConfigError, match=r"^parent_shape must .*, got \(8, 8, 32768\)$"):
        Placement(parent_shape=(8, 8, 32768), offset=(0, 0, 0), window_shape=(8, 8, 8))


def test_labelmap_validates_class_codes(tmp_path):
    """A label map is a grid plus spacing; its codes are checked where
    labels enter, and a file holding an undeclared code names itself."""
    assert [f.name for f in dataclasses.fields(LabelMap)] == ["data", "spacing"]
    arr = np.zeros((2, 2, 2), dtype=np.uint8)
    arr[0, 0, 0] = 7
    m = LabelMap(data=arr, spacing=(1, 1, 1))
    assert m.data.dtype == np.uint8
    path = tmp_path / "code7.nii"
    write_nifti(path, arr, (1, 1, 1))
    with pytest.raises(NiftiFormatError, match=re.escape(str(path)) + r": label values \[7\]"):
        read_labelmap(path)
    assert read_labelmap(path, classes={"background": 0, "x": 7}).data[0, 0, 0] == 7


def test_label_code_scan_names_every_bad_code_across_slabs():
    """Codes are counted slab by slab; an error still names every
    undeclared code, wherever it sits."""
    arr = np.zeros((192, 192, 48), dtype=np.uint8)
    arr[0, 0, 0], arr[100, 5, 7], arr[-1, -1, -1], arr[50, 50, 20] = 9, 200, 4, 3
    with pytest.raises(ValueError, match=re.escape("label values [4, 9, 200]")):
        check_label_codes(LabelMap(data=arr, spacing=(1, 1, 1)))


def test_labelmap_coerces_wider_integers():
    arr = np.zeros((2, 2, 2), dtype=np.int32)
    arr[1, 1, 1] = 2
    m = LabelMap(data=arr, spacing=(1, 1, 1))
    assert m.data.dtype == np.uint8
    assert m.data[1, 1, 1] == 2

    with pytest.raises(ValueError):
        LabelMap(data=np.full((2, 2, 2), 300), spacing=(1, 1, 1))
    with pytest.raises(ValueError):
        LabelMap(data=np.full((2, 2, 2), 0.5), spacing=(1, 1, 1))
    with pytest.raises(ValueError, match="label data must be 3D, got 2D"):
        LabelMap(data=np.zeros((2, 2), dtype=np.uint8), spacing=(1, 1, 1))


@pytest.mark.parametrize("obj, match", [
    ([["background", 0]], "class_map must be an object"),
    ({1: 1}, "class_map names must be strings, got 1"),
])
def test_check_class_map_rejects_what_is_not_a_class_map(obj, match):
    """JSON cannot give a non-string name, but a library caller can."""
    with pytest.raises(ConfigError, match=match):
        check_class_map(obj)


def test_bbox_bounds_and_helpers():
    b = BBox(lo=(1, 2, 3), hi=(4, 6, 8))
    assert b.shape == (3, 4, 5)
    with pytest.raises(ValueError):
        BBox(lo=(1, 2, 3), hi=(1, 6, 8))
    with pytest.raises(ValueError):
        BBox(lo=(-1, 0, 0), hi=(2, 2, 2))


def test_placement_validation():
    p = Placement(parent_shape=(10, 10, 10), offset=(-2, 0, 3), window_shape=(4, 4, 4))
    assert p.offset == (-2, 0, 3)
    with pytest.raises(ValueError):
        Placement(parent_shape=(10, 10, 10), offset=(0, 0, 0), window_shape=(0, 4, 4))
    with pytest.raises(ValueError, match="window_shape"):
        Placement(parent_shape=(10, 10, 10), offset=(0, 0, 0), window_shape=(math.inf, 4, 4))


@pytest.mark.parametrize("value, integer", [
    (True, False), (np.True_, False), ("1", False), (None, False), ([1], False),
    (math.nan, False), (-math.inf, False), (10**400, False),
    (True, True), (1.0, True), (np.float64(2.0), True), ("1", True),
])
def test_number_rule_rejects_non_numbers(value, integer):
    with pytest.raises(ConfigError, match=r"^x must be (an int|a finite number), got"):
        _check_number(value, "x", integer)


def test_number_rule_accepts_numbers_and_checks_bounds():
    for value in (0, 2.5, np.float32(0.5), np.int64(3), Fraction(1, 2), -1e300):
        assert _check_number(value, "x") is value
    for value in (0, np.uint8(7), 10**400):
        assert _check_number(value, "x", integer=True) is value
    assert _check_number(1, "x", gt=0, le=1) == 1
    with pytest.raises(ConfigError, match=r"^x must be a finite number > 0 and <= 1, got 0$"):
        _check_number(0, "x", gt=0, le=1)
    with pytest.raises(ConfigError, match=r"^n must be an int >= 2 and < 5, got 5$"):
        _check_number(5, "n", integer=True, ge=2, lt=5)


# -- threads inside one case ------------------------------------------------

@pytest.mark.parametrize("threads, n_tasks", [(1, 5), (2, 5), (3, 7), (4, 2), (3, 1)])
def test_in_parallel_runs_contiguous_runs_and_keeps_order(threads, n_tasks):
    """Results come back in task order, each task runs exactly once, and no
    more threads run than the budget or the tasks allow; with a budget of
    1, every task runs on the calling thread."""
    caller = threading.current_thread()
    calls = []

    def where(i):
        calls.append(i)
        return i, threading.current_thread()

    with thread_budget(threads):
        done = _in_parallel([partial(where, i) for i in range(n_tasks)])
    assert [i for i, _ in done] == list(range(n_tasks))
    assert sorted(calls) == list(range(n_tasks))
    assert len({t for _, t in done}) <= min(threads, n_tasks)
    if threads == 1:
        assert all(t is caller for _, t in done)


def test_in_parallel_raises_the_first_failure_in_task_order():
    """The failure of the earliest task wins, even when a later task fails
    sooner, and no task starts after a task has failed."""
    ran = []
    second_failed = threading.Event()

    def fail_late(wait):
        # with two threads, the other one takes the next task and fails first
        if wait:
            assert second_failed.wait(10)
        ran.append("first")
        raise first

    def fail_now():
        ran.append("second")
        second_failed.set()
        raise second

    first, second = OSError("first"), ValueError("second")
    for threads in (1, 2):
        ran.clear()
        second_failed.clear()
        with thread_budget(threads), pytest.raises(OSError) as info:
            _in_parallel([partial(fail_late, threads > 1), fail_now,
                          partial(ran.append, "not run")])
        assert info.value is first
        assert ran == (["first"] if threads == 1 else ["second", "first"])


def test_in_parallel_helpers_run_in_the_callers_context(monkeypatch):
    """Helpers run in a copy of the calling thread's context, so each task
    sees the case's thread budget, not the whole machine's; a barrier puts
    each of the three tasks on its own thread."""
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(8)), raising=False)
    barrier = threading.Barrier(3)

    def task():
        barrier.wait(10)
        return threading.current_thread(), core._threads()

    with thread_budget(3):
        done = _in_parallel([task] * 3)
    assert len({t for t, _ in done}) == 3
    assert [n for _, n in done] == [3, 3, 3]


def _main_thread_inside(*codes) -> bool:
    """Whether the main thread's Python stack, innermost frame first, starts
    with frames running ``codes``, in that order."""
    frame = sys._current_frames().get(threading.main_thread().ident)
    for code in codes:
        if frame is None or frame.f_code is not code:
            return False
        frame = frame.f_back
    return True


def _caller_sleeps(seconds):
    time.sleep(seconds)


# Where the calling thread is when the interrupt reaches it: waiting for the
# helper in _in_parallel's join, or running its own task.
_CALLER_AT = {
    "joining": (0.0, (threading.Condition.wait.__code__, threading.Event.wait.__code__,
                      core._in_parallel.__code__)),
    "running": (1.0, (_caller_sleeps.__code__,)),
}


@pytest.mark.parametrize("where", list(_CALLER_AT))
def test_in_parallel_joins_helpers_through_an_interrupt(where):
    """An interrupt that reaches the calling thread while it waits for a
    helper, or while it runs its own tasks, is raised only after every
    helper has finished.  Both tasks are alike, so it does not matter
    which thread takes which: on the helper, a task sends the interrupt
    once the calling thread is seen where the test's id names; on the
    calling thread, it waits until the helper has taken the other task."""
    caller_s, codes = _CALLER_AT[where]
    helper_took = threading.Event()
    finished = []

    def task():
        if threading.current_thread() is threading.main_thread():
            assert helper_took.wait(10), "the helper never took a task"
            _caller_sleeps(caller_s)
            return
        helper_took.set()
        deadline = time.monotonic() + 10
        while not _main_thread_inside(*codes):
            assert time.monotonic() < deadline, f"the calling thread never reached {where}"
            time.sleep(0.001)
        # a real SIGINT, which also breaks the caller's wait in join()
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        time.sleep(0.2)
        finished.append(True)

    baseline = threading.active_count()
    with thread_budget(2), pytest.raises(KeyboardInterrupt):
        _in_parallel([task, task])
    assert finished == [True]
    assert threading.active_count() == baseline


def test_in_parallel_stress_under_thread_contention():
    """More threads than cores, a tiny switch interval and many short tasks
    that write into one shared array: every task runs once, in its slot."""
    out = np.zeros(2000, dtype=np.int64)

    def put(i):
        out[i] += i + 1
        return i

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for _ in range(20):
            out[:] = 0
            with thread_budget(core._MAX_CASE_THREADS):
                assert _in_parallel([partial(put, i) for i in range(out.size)]) == list(
                    range(out.size))
            assert np.array_equal(out, np.arange(1, out.size + 1))
    finally:
        sys.setswitchinterval(interval)


def test_thread_budget_shares_the_cpus_out(monkeypatch):
    """Each case gets the CPUs divided by the cases that run at once, at
    least 1 and at most the cap; with no budget set, a case gets the whole
    machine's."""
    monkeypatch.setattr(core.os, "sched_getaffinity", lambda pid: set(range(6)), raising=False)
    assert [core._thread_budget(w) for w in (1, 2, 3, 4, 6, 7)] == [4, 3, 2, 1, 1, 1]
    assert core._threads() == 4
    with thread_budget(2):
        assert core._threads() == 2
