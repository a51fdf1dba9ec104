import os
import pickle
import warnings

import pytest

import lrsim.forked as forked
from lrsim import harness, oracle
from tests.conftest import make_world

ITEMS = range(9)  # odd: this process computes the first and the last


class ItemWarning(Warning):
    """Warned by the workers in the test below."""


@pytest.fixture
def cpus(monkeypatch):
    """Set the number of CPUs a map sees: at 1 nothing forks."""
    def use(k):
        monkeypatch.setattr(forked, "cpus", lambda: k)
    return use


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _until_error(results):
    """The results yielded before the map raised, and what it raised."""
    got = []
    with pytest.raises(Exception) as raised:
        for result in results:
            got.append(result)
    return got, raised.value


@pytest.mark.parametrize("k", [1, 2])
def test_results_come_back_in_item_order(cpus, k):
    cpus(k)
    assert list(forked.ordered_map(lambda i: (i, i * i), ITEMS, "worker", "item")) == [
        (i, i * i) for i in ITEMS]
    _assert_no_child_left()


@pytest.mark.parametrize("k", [2])
def test_a_worker_s_warning_is_shown_once(cpus, k):
    # every item of the worker warns from the same line; this process's
    # items do not warn, so what is shown is re-issued
    parent = os.getpid()

    def fn(i):
        if os.getpid() != parent:
            warnings.warn("an item of a worker", ItemWarning)
        return i

    cpus(k)
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("default")
        assert list(forked.ordered_map(fn, ITEMS, "worker", "item")) == list(ITEMS)
    assert [(str(w.message), w.category, w.filename) for w in caught] == [
        ("an item of a worker", ItemWarning, __file__)]
    _assert_no_child_left()


@pytest.mark.parametrize("k", [1, 2])
def test_an_exception_is_raised_at_its_item(cpus, k):
    # item 5 is the worker's at k = 2; every later item raises too
    def fn(i):
        if i >= 5:
            raise ValueError(f"item {i}")
        return i

    cpus(k)
    got, error = _until_error(forked.ordered_map(fn, ITEMS, "worker", "item"))
    assert got == [0, 1, 2, 3, 4]
    assert (type(error), str(error)) == (ValueError, "item 5")
    _assert_no_child_left()


@pytest.mark.parametrize("k", [1, 2])
def test_an_unpicklable_result_is_raised_at_its_item(cpus, k):
    # only a worker pickles: on one CPU the lambda comes back as it is
    cpus(k)
    results = forked.ordered_map(lambda i: (lambda: i) if i == 5 else i,
                                 ITEMS, "worker", "item")
    if k == 1:
        assert [r if isinstance(r, int) else r() for r in results] == list(ITEMS)
        return
    got, error = _until_error(results)
    assert got == [0, 1, 2, 3, 4]
    assert isinstance(error, (AttributeError, pickle.PicklingError))
    assert "pickle" in str(error)
    _assert_no_child_left()


@pytest.mark.parametrize("k", [2])
def test_a_worker_ending_early_names_the_item(cpus, k):
    # the worker owes item 5 and leaves before it sends anything for it
    parent = os.getpid()

    def fn(i):
        if i == 5 and os.getpid() != parent:
            os._exit(0)
        return i

    cpus(k)
    got, error = _until_error(forked.ordered_map(fn, ITEMS, "worker", "item"))
    assert got == [0, 1, 2, 3, 4]
    assert (type(error), str(error)) == (
        RuntimeError, "worker 1 of 2 ended before item 5")
    _assert_no_child_left()


@pytest.mark.parametrize("k", [2])
def test_a_truncated_pickle_names_the_item(cpus, monkeypatch, k):
    # the worker's pickle for its last item, 7 (this process computes 8),
    # loses its last bytes and the worker ends: the stream stops inside
    # that item's pickle
    parent, dumps = os.getpid(), pickle.dumps
    last = ITEMS[-2]

    def truncating(obj, protocol=None):
        data = dumps(obj, protocol)
        return data[:-3] if os.getpid() != parent and obj[1] == last else data

    monkeypatch.setattr(pickle, "dumps", truncating)
    cpus(k)
    got, error = _until_error(forked.ordered_map(lambda i: i, ITEMS, "worker", "item"))
    assert got == list(range(last))
    assert (type(error), str(error)) == (
        RuntimeError, f"worker 1 of 2 ended before item {last}")
    _assert_no_child_left()


@pytest.mark.parametrize("k", [2])
def test_a_map_left_early_leaves_no_child(cpus, k):
    # the worker may still be sending when the map is closed
    cpus(k)
    results = forked.ordered_map(lambda i: bytes(1 << 17), range(40), "worker", "item")
    assert len(next(results)) == 1 << 17
    results.close()
    _assert_no_child_left()


@pytest.mark.parametrize("use,n_forks", [
    (lambda: harness.run_experiment(make_world(), 2 * 2**16 + 5), 1),
    (lambda: oracle.compare_grid(oracle.PathBank(make_world(), 0, 200_000)), 1),
    (lambda: harness.tail_bound_check(make_world(), 2 * 2**16 + 5), 2),
], ids=["run_experiment", "compare_grid", "tail_bound_check"])
def test_every_user_of_the_map_forks_one_worker_on_many_cpus(monkeypatch, use,
                                                             n_forks):
    # wall time and memory are measured only for two processes, so on 8 CPUs
    # each map forks one worker (tail_bound_check maps once per hypothesis)
    # and gives what one CPU gives
    forks, fork = [], os.fork
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    results = []
    for k in (1, 8):
        monkeypatch.setattr(forked, "cpus", lambda: k)
        results.append(pickle.dumps(use()))
        assert len(forks) == (n_forks if k == 8 else 0), k
        _assert_no_child_left()
        forks.clear()
    assert results[0] == results[1]
