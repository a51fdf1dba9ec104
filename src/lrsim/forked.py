"""The package's one fork path: a map over items split by index between
this process and one forked worker, whose results come back in item order.

Every case experiment sums its chunks of cases through it (see
genmodel.fold_chunks), the CSV writer formats its pieces through it (see
cli._write_csv), and oracle-check checks its groups of grid points through
it (see oracle.compare_grid). A result does not depend on the process that
computed it, so no output byte depends on whether the worker forked.
There is one worker on any host, because wall time and summed memory have
been measured only for two processes.
"""

from __future__ import annotations

import itertools
import os
import pickle
import sys
import warnings
from typing import Callable, Iterable, Iterator

__all__ = ["cpus", "ordered_map"]


def cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def ordered_map(fn: Callable, items: Iterable, label: str, noun: str) -> Iterator:
    """Yield fn(item) for every item, in item order, computed on up to two of
    the CPUs this process may run on. label names the worker and noun an
    item in the errors this raises.

    This process applies fn to the even-indexed items, and one forked worker
    to the odd-indexed ones. Both processes walk items, so items must yield
    the same items each time they are walked from the same state. With fewer
    than two items, one CPU or no os.fork, nothing forks.

    The worker sends one pickle per item down a pipe: the warnings fn gave,
    then its result or the exception it raised (a result that cannot be
    pickled raises too). This process re-issues the warnings through its own
    filters and raises the exception at that item's position, so that what
    is shown and raised is what one process would show and raise. A worker
    that ends before an item it owes, or exits nonzero, raises RuntimeError.
    The worker is reaped before this returns or raises."""
    items = iter(items)
    head = list(itertools.islice(items, 2))
    items = itertools.chain(head, items)
    if len(head) < 2 or not hasattr(os, "fork") or cpus() < 2:
        yield from map(fn, items)
        return
    r, w = os.pipe()
    reader = open(r, "rb")
    pid = None
    try:
        try:
            with warnings.catch_warnings():
                # Python 3.12 warns when a process with threads forks. The
                # only threads here are numpy's idle BLAS pool, and the
                # worker does not call BLAS.
                warnings.simplefilter("ignore", DeprecationWarning)
                pid = os.fork()
                if pid == 0:  # the worker: it never unwinds into the caller
                    try:
                        _work(fn, itertools.islice(items, 1, None, 2), r, w)
                        os._exit(0)
                    finally:
                        os._exit(1)
        finally:  # reached only here: the worker leaves by os._exit
            os.close(w)
        for i, item in enumerate(items):
            if i % 2 == 0:
                yield fn(item)
            else:
                yield _receive(reader, f"{label} 1 of 2 ended before {noun} {i}")
    finally:
        # a worker blocked on a full pipe leaves on EPIPE once the read end
        # is closed, so closing comes before reaping
        reader.close()
        failed = pid is not None and os.waitpid(pid, 0)[1] != 0
    if failed:
        raise RuntimeError(f"1 of 1 {label}s failed")


def _work(fn: Callable, items: Iterator, r: int, w: int) -> None:
    """The body of the forked worker: send (warnings, result, exception) for
    each of items down w, and stop after an exception. Closing its copy of
    the read end r lets it get EPIPE once the parent closes its own. Its
    caller leaves by os._exit, so it never flushes an inherited buffer. The
    parent shows what walking items warns, so only fn's warnings are sent."""
    os.close(r)
    warnings.simplefilter("ignore")
    with open(w, "wb") as out:
        for item in items:
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")  # the parent's filters decide
                try:
                    data, error = _pickle(caught, fn(item), None), None
                except Exception as e:
                    data, error = _pickle(caught, None, e), e
            out.write(data)
            out.flush()  # the parent waits for each item
            if error is not None:
                return


def _pickle(caught: list, result, error: Exception | None) -> bytes:
    return pickle.dumps(([(str(m.message), m.category, m.filename, m.lineno)
                          for m in caught], result, error), pickle.HIGHEST_PROTOCOL)


def _receive(reader, ended: str):
    """Read one item's pickle from a worker: re-issue its warnings, then
    return its result or raise its exception."""
    try:
        caught, result, error = pickle.load(reader)
    except (EOFError, pickle.UnpicklingError):  # empty or truncated
        raise RuntimeError(ended) from None
    _reissue(caught)
    if error is not None:
        raise error
    return result


def _reissue(caught: list) -> None:
    """Show a worker's warnings as this process would have shown them: under
    its filters and in the registry of the module each came from, so that
    a warning shown once per location in one process is shown once here."""
    modules = {getattr(m, "__file__", None): m for m in list(sys.modules.values())}
    for text, category, filename, lineno in caught:
        module = modules.get(filename)
        registry = (None if module is None
                    else vars(module).setdefault("__warningregistry__", {}))
        warnings.warn_explicit(text, category, filename, lineno,
                               module=getattr(module, "__name__", None),
                               registry=registry)
