"""The forked job runner shared by compare-forward and train-inverse."""

import errno
import operator
import os
import signal
import threading
import time

import pytest

from corrml import jobs
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
    # forked workers inherit fn and the jobs, so neither is pickled: a closure
    # over a lock, and jobs holding one, run as they are
    lock = threading.Lock()

    def fn(job):
        delay, value, held = job
        time.sleep(delay)  # the first job finishes last
        with lock, held:
            return value * 2

    monkeypatch.setattr(jobs, "_worker_count", lambda n_jobs: workers)
    work = [(0.3, 1, threading.Lock()), (0.0, 2, threading.Lock()), (0.0, 3, threading.Lock())]
    assert run_jobs(fn, work, ["a", "b", "c"], "jobs") == [2, 4, 6]
    assert jobs._pending is None
    assert no_children()


def test_more_jobs_than_a_pipe_holds_come_back_in_job_order(monkeypatch):
    # a pipe holds 64 KiB, 16,384 job indexes; the rest are fed as workers
    # take them. An alarm ends the test if the feed blocks.
    monkeypatch.setattr(jobs, "_worker_count", lambda n_jobs: 2)

    def timed_out(signum, frame):
        raise TimeoutError("run_jobs did not return within 60 s")

    n = 20_000
    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(60)
    try:
        results = run_jobs(operator.neg, list(range(n)), [str(i) for i in range(n)], "jobs")
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)
    assert results == [-i for i in range(n)]
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
        run_jobs(operator.neg, [1, 2, 3], ["a", "b", "c"], "jobs")
    assert sorted(os.listdir("/proc/self/fd")) == open_before
    assert len(forks) == 2 and no_children()
    assert jobs._pending is None
