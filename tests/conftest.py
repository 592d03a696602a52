from __future__ import annotations

import os
import sys
import threading
import time
import tracemalloc
from contextlib import contextmanager
from functools import partial

import numpy as np
import pytest

from biatrium import LabelMap
from biatrium import core


@pytest.fixture
def rng():
    return np.random.default_rng(20260825)


def traced_peak(fn, *args) -> int:
    """Peak bytes traced by tracemalloc while ``fn(*args)`` runs, its
    result included."""
    tracemalloc.start()
    try:
        fn(*args)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def child_env(**extra) -> dict:
    """This environment and ``extra``, with this biatrium first on ``PYTHONPATH``."""
    src = os.path.dirname(os.path.dirname(os.path.abspath(core.__file__)))
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return {**os.environ, "PYTHONPATH": path, **extra}


@contextmanager
def thread_budget(n: int):
    """Run the body as a case that may use ``n`` threads, as a worker of
    ``run_pipeline`` would, whatever this machine's CPU count."""
    token = core._case_threads.set(n)
    try:
        yield
    finally:
        core._case_threads.reset(token)


def interrupt_the_blend(monkeypatch) -> None:
    """Make every MCLAHE blend end in a KeyboardInterrupt while its helpers
    are still at work: one task more, after the blend's own, raises it, and
    a helper waits 0.2 s before each blend task it takes.  Whichever thread
    takes the last task, the blend raises the interrupt only once every
    helper has finished: on the calling thread it is an interrupt, on a
    helper a failure that stops the rest."""
    mclahe_module = sys.modules["biatrium.mclahe"]  # biatrium.mclahe is the function
    real = mclahe_module._in_parallel

    def interrupt():
        raise KeyboardInterrupt

    def slowly(caller, task):
        if threading.current_thread() is not caller:
            time.sleep(0.2)
        return task()

    def interrupted(tasks):
        if tasks[0].func.__name__ != "blend":
            return real(tasks)
        caller = threading.current_thread()
        return real([partial(slowly, caller, t) for t in tasks] + [interrupt])

    monkeypatch.setattr(mclahe_module, "_in_parallel", interrupted)


def random_blobby_labels(rng, shape, codes=(1, 2, 3), spacing=(1.0, 1.0, 1.0),
                         n_blobs=(1, 4)) -> LabelMap:
    """Random label map built from solid boxes, so surfaces stay small
    enough for all-pairs distance oracles."""
    arr = np.zeros(shape, dtype=np.uint8)
    total = int(rng.integers(n_blobs[0], n_blobs[1] + 1))
    for _ in range(total):
        code = int(rng.choice(codes))
        lo = [int(rng.integers(0, max(1, s - 1))) for s in shape]
        hi = [int(rng.integers(l + 1, s + 1)) for l, s in zip(lo, shape)]
        arr[lo[0]:hi[0], lo[1]:hi[1], lo[2]:hi[2]] = code
    return LabelMap(data=arr, spacing=spacing)


def random_noise_labels(rng, shape, codes=(0, 1, 2, 3), spacing=(1.0, 1.0, 1.0)) -> LabelMap:
    arr = rng.choice(np.array(codes, dtype=np.uint8), size=shape)
    return LabelMap(data=arr, spacing=spacing)
