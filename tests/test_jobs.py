"""The forked job runner shared by compare-forward and train-inverse."""

import os
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
