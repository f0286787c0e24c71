"""Independent jobs, each run in a process forked for it alone.

`run_jobs(jobs, names, noun)` is `[job() for job in jobs]`, whatever the CPU
count; it serves both `compare-forward` (one job per cell) and `train-inverse`
(one per fit).
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal

from .errors import TrainingError

# Under pickle protocol 5, numpy arrays load as views into a bytearray each:
# train-inverse's parent process then peaked near 64 MB against 59 MB.
_PROTOCOL = 4


def _worker_count(n_jobs: int) -> int:
    """Processes for `n_jobs` independent jobs: one per CPU this process may
    run on (every CPU where `os` has no affinity call), at most one per job."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, n_jobs))


def _start(job, inherited: list[int]) -> tuple[int, object]:
    """Fork a process that closes the descriptors `inherited`, sends
    `(succeeded, result or exception)` of `job()` as one pickle on its own
    pipe, and exits. Returns its pid and the pipe's read end as a file."""
    read_fd, write_fd = os.pipe()
    # objects that exist at the fork go to the permanent generation, so the
    # process's collections do not touch, and so copy, the pages they share
    gc.freeze()
    try:
        pid = os.fork()
    except BaseException:
        os.close(read_fd)
        os.close(write_fd)
        raise
    if pid:
        os.close(write_fd)  # the pipe then ends when the process does
        return pid, open(read_fd, "rb")
    try:  # the job's process: it never returns into the caller's code
        for fd in (read_fd, *inherited):
            os.close(fd)
        try:
            outcome = (True, job())
        except Exception as exc:
            outcome = (False, exc)
        with open(write_fd, "wb") as fh:
            pickle.dump(outcome, fh, _PROTOCOL)
        os._exit(0)
    finally:
        os._exit(1)


def run_jobs(jobs: list, names: list[str], noun: str) -> list:
    """`job()` for every job, a callable that takes no argument, in job order.

    Each job runs in a process forked for it alone, on one CPU as on many,
    which inherits the job, the loaded modules and the BLAS thread setting,
    so no job is pickled. At most `_worker_count` such processes run at once
    (one, on one usable CPU), and jobs start in job order as they end.
    This process waits on their pipes and unpickles each result as it
    streams in, so no result is held twice. A failure raises the error of
    the first failing job in job order. A job whose process dies is lost,
    and no other job with it; if that is the first failure, a TrainingError
    names the lost jobs by `names`, as "the `noun` ... were lost". No process
    outlives the call, and no pipe it opens stays open, also when a fork
    fails.
    """
    workers = _worker_count(len(jobs))
    # a job's process costs a 2 ms fork and 30-60 ms of page faults; jobs take 0.1-1.8 s
    outcomes: dict = {}
    running: dict = {}  # read end's descriptor -> (job index, pid, read end)
    poll = select.poll()
    started = 0
    try:
        while started < len(jobs) or running:
            while started < len(jobs) and len(running) < workers:
                pid, fh = _start(jobs[started], list(running))
                running[fh.fileno()] = (started, pid, fh)
                poll.register(fh, select.POLLIN)
                started += 1
            for fd, _ in poll.poll():
                index, pid, fh = running[fd]
                try:
                    outcomes[index] = pickle.load(fh)
                except (EOFError, pickle.UnpicklingError):
                    pass  # the process died before its pickle was whole
                poll.unregister(fd)
                del running[fd]
                fh.close()
                os.waitpid(pid, 0)
    finally:  # jobs still running only when this call is failing
        for _, pid, fh in running.values():
            os.kill(pid, signal.SIGKILL)
            fh.close()
            os.waitpid(pid, 0)
        gc.unfreeze()
    for index in range(len(jobs)):
        if index not in outcomes:
            lost = [name for i, name in enumerate(names) if i not in outcomes]
            raise TrainingError(f"a worker process ended abruptly; the {noun} "
                                f"{', '.join(lost)} were lost")
        succeeded, value = outcomes[index]
        if not succeeded:
            raise value
    return [outcomes[index][1] for index in range(len(jobs))]
