"""The forked job runner shared by compare-forward and train-inverse."""

import errno
import operator
import os
import signal
import threading
import time
from functools import partial

import pytest

from corrml import jobs
from corrml.errors import TrainingError
from corrml.jobs import run_jobs


def no_children() -> bool:
    """Whether this process has no child process, running or exited."""
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


@pytest.mark.parametrize("workers", [2, 1])
def test_results_come_back_in_job_order_from_a_function_no_pickle_can_send(monkeypatch,
                                                                           workers):
    # forked processes inherit the jobs, so none is pickled: a closure over a
    # lock, and jobs holding one, run as they are, one CPU or many
    lock = threading.Lock()

    def fn(job):
        delay, value, held = job
        time.sleep(delay)  # the first job finishes last
        with lock, held:
            return value * 2

    monkeypatch.setattr(jobs, "_worker_count", lambda n_jobs: workers)
    work = [(0.3, 1, threading.Lock()), (0.0, 2, threading.Lock()), (0.0, 3, threading.Lock())]
    assert run_jobs([partial(fn, job) for job in work], ["a", "b", "c"], "jobs") == [2, 4, 6]
    assert no_children()


def test_jobs_start_in_job_order_with_at_most_one_process_per_worker(monkeypatch):
    # each job runs in a process forked for it; a job starts only once a
    # running one has ended, so at most two job processes are alive at once
    monkeypatch.setattr(jobs, "_worker_count", lambda n_jobs: 2)
    fork, forked = os.fork, []

    def recorded():
        pid = fork()
        if pid:
            forked.append(pid)
        return pid

    def fn(job):
        start = time.monotonic()
        time.sleep(0.001)
        return job, os.getpid(), start, time.monotonic()

    monkeypatch.setattr(os, "fork", recorded)
    n = 400
    results = run_jobs([partial(fn, i) for i in range(n)], [str(i) for i in range(n)], "jobs")
    assert [job for job, *_ in results] == list(range(n))
    assert [pid for _, pid, _, _ in results] == forked  # one process per job, in job order
    ends = [end for *_, end in results]
    for job, _, start, _ in results:
        # of the jobs before it, all but at most one have ended when a job starts
        assert sum(end > start for end in ends[:job]) <= 1, job
    assert no_children()


def test_a_job_whose_process_dies_loses_only_itself(monkeypatch):
    monkeypatch.setattr(jobs, "_worker_count", lambda n_jobs: 2)

    def fn(job):
        if job in (1, 3):
            os.kill(os.getpid(), signal.SIGKILL)
        return -job

    with pytest.raises(TrainingError, match="^a worker process ended abruptly; "
                                            "the jobs j1, j3 were lost$"):
        run_jobs([partial(fn, i) for i in range(6)], [f"j{i}" for i in range(6)], "jobs")
    assert no_children()


def test_worker_count_without_an_affinity_call_counts_every_cpu(monkeypatch):
    # CPython on macOS has no os.sched_getaffinity
    monkeypatch.delattr(os, "sched_getaffinity")
    assert jobs._worker_count(1_000) == (os.cpu_count() or 1)
    assert jobs._worker_count(1) == 1
    assert run_jobs([partial(operator.neg, i) for i in (1, 2, 3)], ["a", "b", "c"],
                    "jobs") == [-1, -2, -3]
    assert no_children()


def test_a_fork_that_fails_partway_leaves_no_child_and_no_open_descriptor(monkeypatch):
    monkeypatch.setattr(jobs, "_worker_count", lambda n_jobs: 2)
    fork, forks = os.fork, []

    def fails_second(*args):
        forks.append(None)
        if len(forks) == 2:
            raise OSError(errno.EAGAIN, "fork refused")
        return fork(*args)

    monkeypatch.setattr(os, "fork", fails_second)
    open_before = sorted(os.listdir("/proc/self/fd"))
    with pytest.raises(OSError, match="fork refused"):
        run_jobs([partial(operator.neg, i) for i in (1, 2, 3)], ["a", "b", "c"], "jobs")
    assert sorted(os.listdir("/proc/self/fd")) == open_before
    assert len(forks) == 2 and no_children()
