import os

import pytest

from suspkit.errors import SuspkitError
from suspkit.workers import Workers


def _tag(data, tasks, scale):
    return [(task * scale + data, os.getpid()) for task in tasks]


def _fail_in_a_worker(data, tasks, parent):
    if os.getpid() != parent:
        raise SuspkitError("worker failed")
    return list(tasks)


class TestDeal:
    @pytest.mark.parametrize("count", [0, 1, 2])
    def test_results_come_back_in_task_order(self, count):
        with Workers(count, 1) as workers:
            results = workers.deal(_tag, 7, 10)
        assert [value for value, _ in results] == [10 * task + 1 for task in range(7)]
        # Round-robin: process p takes tasks p, p + P, ...; process 0 is this one.
        pids = [pid for _, pid in results]
        assert pids[0] == os.getpid()
        assert len(set(pids)) == count + 1
        assert pids == [pids[task % (count + 1)] for task in range(7)]

    def test_fewer_tasks_than_processes(self):
        with Workers(3, 0) as workers:
            assert [value for value, _ in workers.deal(_tag, 2, 1)] == [0, 1]


class TestLifetime:
    def test_workers_exit_at_eof(self):
        with Workers(2, None) as workers:
            procs = list(workers._procs)
            assert all(proc.is_alive() for proc in procs)
        assert [proc.exitcode for proc in procs] == [0, 0]

    def test_a_worker_error_is_raised_here_with_its_type(self):
        with pytest.raises(SuspkitError, match="worker failed"):
            with Workers(1, None) as workers:
                procs = list(workers._procs)
                workers.deal(_fail_in_a_worker, 4, os.getpid())
        assert not any(proc.is_alive() for proc in procs)

    def test_a_worker_error_carries_the_worker_traceback(self):
        with pytest.raises(SuspkitError) as raised:
            with Workers(1, None) as workers:
                workers.deal(_fail_in_a_worker, 4, os.getpid())
        cause = str(raised.value.__cause__)
        assert "in _fail_in_a_worker" in cause
        assert 'raise SuspkitError("worker failed")' in cause

    def test_no_fork_without_workers(self):
        with Workers(0, 0) as workers:
            assert workers._procs == []
            assert workers.deal(_tag, 3, 1) == [(t, os.getpid()) for t in range(3)]
