import ctypes
import threading

import pytest

from photonsub import parallel

blas_threads = parallel.openblas("scipy_openblas_get_num_threads64_")
needs_blas = pytest.mark.skipif(blas_threads is None,
                                reason="numpy's bundled OpenBLAS not found")


def leftovers():
    """What task_map must leave as it found it: live threads, BLAS threads."""
    return threading.active_count(), blas_threads and blas_threads()


@pytest.fixture(params=[1, 2], ids=["one_worker", "two_workers"])
def workers(request, monkeypatch):
    monkeypatch.setattr(parallel, "workers", lambda: request.param)
    return request.param


def test_results_in_item_order(workers):
    assert parallel.task_map(lambda x: x * x, range(10)) == \
        [x * x for x in range(10)]
    assert parallel.task_map(len, []) == []


@needs_blas
def test_tasks_run_on_one_blas_thread(workers):
    seen = parallel.task_map(lambda _: blas_threads(), range(4))
    assert seen == [1 if workers > 1 else blas_threads()] * 4


def test_no_leftovers_after_normal_return(workers):
    before = leftovers()
    parallel.task_map(lambda x: threading.get_ident(), range(8))
    assert leftovers() == before


def test_no_leftovers_after_a_task_raises(workers):
    before = leftovers()

    def task(x):
        if x == 3:
            raise KeyError(x)
        return x

    with pytest.raises(KeyError):
        parallel.task_map(task, range(8))
    assert leftovers() == before


@needs_blas
def test_previous_blas_count_restored():
    put = parallel.openblas("scipy_openblas_set_num_threads64_", None,
                            [ctypes.c_int])
    before = blas_threads()
    put(1)
    try:
        parallel.task_map(abs, range(-4, 4))
        assert blas_threads() == 1
    finally:
        put(before)


def test_ahead_yields_in_item_order(workers):
    assert list(parallel.ahead(lambda x: x * x, range(10))) == \
        [x * x for x in range(10)]
    assert list(parallel.ahead(len, [])) == []


def test_ahead_runs_every_call_on_one_thread(workers):
    threads = set(parallel.ahead(lambda _: threading.get_ident(), range(6)))
    assert len(threads) == 1
    assert (threading.get_ident() in threads) == (workers == 1)


def test_ahead_stays_one_item_ahead(workers):
    # the caller may reuse storage of item i once it asks for item i + 1
    started = []
    for i, _ in enumerate(parallel.ahead(started.append, range(8))):
        assert len(started) <= i + 2


def test_ahead_passes_on_an_exception_from_fn(workers):
    def fn(x):
        if x == 3:
            raise KeyError(x)
        return x

    before, got = leftovers(), []
    with pytest.raises(KeyError):
        for x in parallel.ahead(fn, range(8)):
            got.append(x)
    assert got == [0, 1, 2]
    assert leftovers() == before


def test_ahead_no_leftovers_after_the_consumer_raises(workers):
    before = leftovers()
    with pytest.raises(KeyError):
        for x in parallel.ahead(abs, range(8)):
            if x == 3:
                raise KeyError(x)
    assert leftovers() == before


def test_ahead_no_leftovers_after_the_consumer_stops_early(workers):
    before = leftovers()
    for x in parallel.ahead(abs, range(8)):
        if x == 3:
            break
    assert leftovers() == before
