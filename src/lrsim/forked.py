"""The package's one fork path: a map over items split by index between
forked processes, whose results come back in item order.

Every case experiment sums its chunks of cases through it (see
genmodel.fold_chunks), cases.csv formats its pieces through it (see
cli._write_csv), and oracle-check checks its groups of grid points through
it (see cli._oracle_check and oracle.grid_groups). A result does not depend on the process that computed it,
so no output byte depends on how many processes there were.
"""

from __future__ import annotations

import itertools
import os
import pickle
import sys
import warnings
from typing import Callable, Iterable, Iterator

__all__ = ["CAP", "cpus", "ordered_map"]

# At most this many processes share one map. Each one holds a chunk of its
# own, so CPU and memory grow with the count; wall time and summed memory
# have been measured only up to 2.
CAP = 2


def cpus() -> int:
    """How many CPUs this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform
        return os.cpu_count() or 1


def ordered_map(fn: Callable, items: Iterable, label: str, noun: str) -> Iterator:
    """Yield fn(item) for every item, in item order, computed on up to CAP
    of the CPUs this process may run on. label names a worker and noun an
    item in the errors this raises.

    With k processes, process j applies fn to the items whose index is j mod
    k: this one to items 0, k, 2k, ... and k - 1 forked workers to the rest.
    Every process walks items itself, so items must yield the same items
    each time they are walked from the same state. With fewer than two
    items, one CPU or no os.fork, nothing forks.

    A worker sends one pickle per item down its own pipe: the warnings fn
    gave, then its result or the exception it raised (a result that cannot
    be pickled raises too). This process re-issues the warnings through its
    own filters and raises the exception at that item's position, so that
    what is shown and raised is what one process would show and raise. A
    worker that ends before an item it owes, or exits nonzero, raises
    RuntimeError. Every worker is reaped before this returns or raises.
    """
    items = iter(items)
    head = list(itertools.islice(items, 2))
    items = itertools.chain(head, items)
    k = min(cpus(), CAP) if hasattr(os, "fork") else 1
    if len(head) < 2 or k < 2:
        yield from map(fn, items)
        return
    pids, readers = [], []
    try:
        for j in range(1, k):
            r, w = os.pipe()
            readers.append(open(r, "rb"))
            reads = [reader.fileno() for reader in readers]
            try:
                with warnings.catch_warnings():
                    # Python 3.12 warns when a process with threads forks.
                    # The only threads here are numpy's idle BLAS pool, and
                    # no worker calls BLAS.
                    warnings.simplefilter("ignore", DeprecationWarning)
                    pid = os.fork()
                    if pid == 0:  # a worker: it never unwinds into the caller
                        try:
                            _work(fn, items, j, k, w, reads)
                            os._exit(0)
                        finally:
                            os._exit(1)
            finally:  # reached only here: a worker leaves by os._exit
                os.close(w)
            pids.append(pid)
        for i, item in enumerate(items):
            if i % k == 0:
                yield fn(item)
            else:
                yield _receive(readers[i % k - 1],
                               f"{label} {i % k} of {k} ended before {noun} {i}")
    finally:
        # a worker blocked on a full pipe leaves on EPIPE once its read end
        # is closed, so closing comes before reaping
        for reader in readers:
            reader.close()
        failed = [pid for pid in pids if os.waitpid(pid, 0)[1] != 0]
    if failed:
        raise RuntimeError(f"{len(failed)} of {k - 1} {label}s failed")


def _work(fn: Callable, items: Iterator, j: int, k: int, w: int,
          reads: list[int]) -> None:
    """The body of forked worker j of k: send (warnings, result, exception)
    for every item whose index is j mod k down w, and stop after an
    exception. Its caller leaves by os._exit, so it never flushes an
    inherited buffer. The parent walks the same items and shows what
    walking them warns, so only fn's own warnings are sent."""
    for fd in reads:
        os.close(fd)
    warnings.simplefilter("ignore")
    with open(w, "wb") as out:
        for i, item in enumerate(items):
            if i % k != j:
                continue
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
