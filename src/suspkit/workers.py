"""Forked worker processes for the `train` stage.

`Workers(count, data)` forks `count` copies of this process when its
block is entered; with a count of 0 it forks nothing and runs every call
here.  A worker inherits `data` through the fork, so no matrix is ever
pickled, and serves calls `fn(data, *args)` sent down its pipe.  A
worker exits at EOF on its pipe.  A call that raises sends its exception
back with the worker's traceback, and the parent raises it again with
its type, the traceback attached as its cause.  Leaving the block closes
the pipes and reaps every worker, after terminating them when an
exception is in flight.

`deal` runs tasks 0..n-1 round-robin over all processes, this one
included, and returns their results in task order.
"""

from __future__ import annotations

import os
import signal
import traceback
from typing import Any, Callable


def cpu_count() -> int:
    """The CPUs this process may run on."""
    return len(os.sched_getaffinity(0))


class _RemoteTraceback(Exception):
    """A worker's traceback, as the cause of the exception it raised
    (after `concurrent.futures.process._RemoteTraceback`)."""

    def __init__(self, text: str):
        self.text = text

    def __str__(self) -> str:
        return f'\n"""\n{self.text}"""'


def _serve(conn, data, inherited) -> None:
    # Ctrl-C reaches the whole process group; the parent handles it and
    # terminates its workers.
    signal.signal(signal.SIGINT, signal.SIG_IGN)
    for other in inherited:
        other.close()
    while True:
        try:
            fn, args = conn.recv()
        except EOFError:
            return
        try:
            reply = ("ok", fn(data, *args))
        except Exception as exc:
            reply = ("error", (exc, traceback.format_exc()))
        try:
            conn.send(reply)
        except BrokenPipeError:
            return


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

    def _receive(self, worker: int):
        try:
            status, value = self._conns[worker].recv()
        except EOFError:
            raise RuntimeError(f"train worker {worker} exited unexpectedly") from None
        if status == "error":
            exc, text = value
            raise exc from _RemoteTraceback(text)
        return value

    def deal(self, fn: Callable, n_tasks: int, *args) -> list:
        """fn(data, tasks, *args) gives one result per task of `tasks`.
        Of P processes, process p takes tasks p, p + P, ...; this one is
        p = 0 and runs its share while the workers run theirs."""
        shares = [list(range(p, n_tasks, self.processes)) for p in range(self.processes)]
        for worker, tasks in enumerate(shares[1:]):
            if tasks:
                self._conns[worker].send((fn, (tasks, *args)))
        done = [fn(self.data, shares[0], *args)]
        done += [self._receive(worker) if tasks else [] for worker, tasks in enumerate(shares[1:])]
        return [done[task % self.processes][task // self.processes] for task in range(n_tasks)]
