"""Forked worker processes for the `train` stage.

`Workers(count, data)` forks `count` copies of this process when its
block is entered; with a count of 0 it forks nothing and runs every call
here.  A worker inherits `data` through the fork, so no matrix is ever
pickled, and serves calls `fn(state, *args)` sent down its pipe, where
`state` starts as {"data": data} and keeps what a call stores in it.  A
worker exits at EOF on its pipe.  A call that raises sends its exception
back, and the parent raises it again with its type.  Leaving the block
closes the pipes and reaps every worker, after terminating them when an
exception is in flight.

Two uses:
- `spread_search` is a `GbdtClassifier.fit` split search that searches
  each tree level in contiguous feature ranges, one per process, and
  merges them with `gbdt.merge_splits` (the same bits as one search);
- `deal` runs tasks 0..n-1 round-robin over all processes, this one
  included, and returns their results in task order.
"""

from __future__ import annotations

import os
import signal
import time
from typing import Any, Callable

import numpy as np

from .gbdt import BinMapper, LevelSearch, feature_ranges, merge_splits, split_search


def cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


# A process that waits for a message polls this long before it blocks.
# The gaps between tree levels are shorter, and waking a blocked process
# after each of them cost `train` on pipeline_2w 4.1 s against 3.7 s
# with the poll (2-vCPU KVM guest).
_SPIN_S = 0.005


def _wait(conn) -> None:
    deadline = time.perf_counter() + _SPIN_S
    while not conn.poll() and time.perf_counter() < deadline:
        pass


def _serve(conn, data, inherited) -> None:
    # Ctrl-C reaches the whole process group; the parent handles it and
    # terminates its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    state = {"data": data}
    while True:
        _wait(conn)
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = ("ok", fn(state, *args))
        except Exception as exc:
            reply = ("error", exc)
        try:
            conn.send(reply)
        except BrokenPipeError:
            return


def _set_search(state: dict, codes: np.ndarray, uppers: list, lam: float, min_child_hess: float):
    state["search"] = split_search(codes, BinMapper(uppers), lam, min_child_hess)


def _search_level(state: dict, rows: np.ndarray, sizes: np.ndarray, gh: tuple | None):
    if gh is not None:
        state["gh"] = gh
    return state["search"](np.split(rows, np.cumsum(sizes[:-1])), *state["gh"])


def _run_share(state: dict, fn: Callable, tasks: list[int], *args) -> list:
    return fn(state["data"], tasks, *args)


class Workers:
    """`count` forked workers that inherit `data` (see the module docstring)."""

    def __init__(self, count: int, data: Any):
        self.count = count
        self.data = data
        self._conns: list = []
        self._procs: list = []

    @property
    def processes(self) -> int:
        return self.count + 1

    def __enter__(self) -> "Workers":
        if not self.count:
            return self
        # Imported here: only `train` forks, and the import costs every
        # other stage process about 12 ms and 1 MB of peak RSS.
        import multiprocessing

        context = multiprocessing.get_context("fork")
        try:
            for _ in range(self.count):
                mine, theirs = context.Pipe()
                # The child closes the parent's ends of every pipe it
                # inherits, so that each worker sees EOF when the parent
                # closes its own end.
                proc = context.Process(
                    target=_serve, args=(theirs, self.data, [*self._conns, mine]), daemon=True
                )
                proc.start()
                theirs.close()
                self._conns.append(mine)
                self._procs.append(proc)
        except BaseException as exc:
            self.__exit__(type(exc), exc, None)
            raise
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        for conn in self._conns:
            conn.close()
        for proc in self._procs:
            if exc_type is not None:
                proc.terminate()
            proc.join()
        self._conns, self._procs = [], []

    def _send(self, worker: int, fn: Callable, *args) -> None:
        self._conns[worker].send((fn, args))

    def _receive(self, worker: int):
        _wait(self._conns[worker])
        try:
            status, value = self._conns[worker].recv()
        except EOFError:
            raise RuntimeError(f"train worker {worker} exited unexpectedly") from None
        if status == "error":
            raise value
        return value

    def spread_search(
        self, codes: np.ndarray, mapper: BinMapper, lam: float, min_child_hess: float
    ) -> LevelSearch:
        """A `gbdt.SplitSearch` over one feature range per process."""
        (lo, hi), *others = feature_ranges(mapper, codes.shape[0], self.processes)
        for worker, (a, b) in enumerate(others):
            self._send(worker, _set_search, np.ascontiguousarray(codes[:, a:b]),
                       mapper.uppers[a:b], lam, min_child_hess)
        for worker in range(len(others)):
            self._receive(worker)
        own = split_search(np.ascontiguousarray(codes[:, lo:hi]), BinMapper(mapper.uppers[lo:hi]),
                           lam, min_child_hess)
        if not others:
            return own

        sent = None  # the workers keep a round's gradients once sent

        def search(node_rows: list[np.ndarray], g: np.ndarray, h: np.ndarray):
            nonlocal sent
            gh = None if g is sent else (g, h)
            sent = g
            rows, sizes = np.concatenate(node_rows), np.array([r.size for r in node_rows])
            for worker in range(len(others)):
                self._send(worker, _search_level, rows, sizes, gh)
            found = [(lo, own(node_rows, g, h))]
            found += [(a, self._receive(worker)) for worker, (a, _) in enumerate(others)]
            return merge_splits(found)

        return search

    def deal(self, fn: Callable, n_tasks: int, *args) -> list:
        """fn(data, tasks, *args) gives one result per task of `tasks`.
        Of P processes, process p takes tasks p, p + P, ...; this one is
        p = 0 and runs its share while the workers run theirs."""
        shares = [list(range(p, n_tasks, self.processes)) for p in range(self.processes)]
        for worker, tasks in enumerate(shares[1:]):
            if tasks:
                self._send(worker, _run_share, fn, tasks, *args)
        done = [fn(self.data, shares[0], *args)]
        done += [self._receive(worker) if tasks else [] for worker, tasks in enumerate(shares[1:])]
        return [done[task % self.processes][task // self.processes] for task in range(n_tasks)]
