"""Independent jobs run in forked worker processes, one per usable CPU.

`run_jobs(fn, jobs, names, noun)` is `[fn(job) for job in jobs]`, computed
in up to one forked process per CPU this process may run on. It serves both
`compare-forward` (one job per cell) and `train-inverse` (one job per fit).
"""

from __future__ import annotations

import gc
import os
import pickle
import select
import signal
import threading

from .errors import TrainingError

# the (fn, jobs) of the pool being started: forked workers inherit it, so a
# worker is told only a job's index, and neither `fn` nor a job is pickled
_pending = None

_INDEX_BYTES = 4
# Under pickle protocol 5, numpy arrays load as views into a bytearray each:
# train-inverse's parent process then peaked near 64 MB against 59 MB.
_PROTOCOL = 4


def _worker_count(n_jobs: int) -> int:
    """Processes for `n_jobs` independent jobs: one per CPU this process may
    run on, at most one per job."""
    return max(1, min(len(os.sched_getaffinity(0)), n_jobs))


def _work(tasks: int, out: int) -> None:
    """A worker's loop: take the next job index from the `tasks` pipe until
    it ends, and stream `(index, succeeded, result or exception)` for
    each job to the `out` pipe as one pickle."""
    fn, jobs = _pending
    with open(out, "wb") as fh:
        while chunk := os.read(tasks, _INDEX_BYTES):
            index = int.from_bytes(chunk, "little")
            try:
                outcome = (index, True, fn(jobs[index]))
            except Exception as exc:
                outcome = (index, False, exc)
            pickle.dump(outcome, fh, _PROTOCOL)
            fh.flush()
            del outcome  # sent: not held while the next job runs


def _feed(fd: int, n_jobs: int) -> None:
    """Write every job index to the `fd` pipe, in job order, then close it.
    A pipe takes a write of at most PIPE_BUF bytes whole, so writes of whole
    indexes that size keep a worker's read from splitting one. Stops early
    if every worker has ended, which leaves the pipe with no reader."""
    chunk = select.PIPE_BUF // _INDEX_BYTES
    try:
        for lo in range(0, n_jobs, chunk):
            os.write(fd, b"".join(i.to_bytes(_INDEX_BYTES, "little")
                                  for i in range(lo, min(lo + chunk, n_jobs))))
    except BrokenPipeError:
        pass
    finally:
        os.close(fd)


def _collect(fd: int, outcomes: dict) -> None:
    """Read one worker's outcomes from its pipe until the worker closes it,
    by ending or by dying; a pickle cut short by a death is dropped."""
    with open(fd, "rb") as fh:
        while True:
            try:
                index, *outcome = pickle.load(fh)
            except (EOFError, pickle.UnpicklingError):
                return
            outcomes[index] = outcome


def run_jobs(fn, jobs: list, names: list[str], noun: str) -> list:
    """`fn(job)` for every job, in job order.

    With one worker (`_worker_count`), the jobs run in this process, one
    after another. Otherwise each job runs whole in one forked worker, which
    inherits the loaded modules and the BLAS thread setting; each idle
    worker takes the next job in job order from a pipe that a thread of this
    process feeds, whatever the number of jobs, and this process only
    collects the results, each streamed to it as it is unpickled, so no
    result is held twice. A failure raises the error of the first failing
    job in job order. A worker that dies loses the job it was running; if
    that is the first failure, a TrainingError names the lost jobs by
    `names`, as "the `noun` ... were lost". No worker outlives the call, and
    no pipe it opens stays open, also when a fork fails.
    """
    global _pending
    workers = _worker_count(len(jobs))
    if workers == 1:
        return list(map(fn, jobs))
    outcomes: dict = {}
    pids, threads = [], []
    tasks, feed = os.pipe()
    unclosed = {tasks, feed}  # descriptors this call still has to close
    _pending = (fn, jobs)
    # objects that exist at the fork go to the permanent generation, so a
    # worker's collections do not touch, and so copy, the pages they share
    gc.freeze()
    try:
        for _ in range(workers):
            fd, out = os.pipe()
            unclosed |= {fd, out}
            pid = os.fork()
            if pid == 0:  # the worker: it never returns into the caller's code
                code = 1
                try:
                    # the task pipe ends only once no worker holds its write end
                    for inherited in unclosed - {tasks, out}:
                        os.close(inherited)
                    _work(tasks, out)
                    code = 0
                finally:
                    os._exit(code)
            pids.append(pid)
            os.close(out)  # the worker's pipe then ends when the worker does
            unclosed.discard(out)
            threads.append((threading.Thread(target=_collect, args=(fd, outcomes)), fd))
        # once the workers hold the only read ends, the feed stops if they all end
        os.close(tasks)
        unclosed.discard(tasks)
        threads.append((threading.Thread(target=_feed, args=(feed, len(jobs))), feed))
        # the threads start once every worker is forked: no worker copies a
        # thread; each closes its descriptor
        for thread, fd in threads:
            thread.start()
            unclosed.discard(fd)
        for thread, _ in threads:
            thread.join()
    except BaseException:
        for pid in pids:
            os.kill(pid, signal.SIGKILL)
        raise
    finally:
        for fd in unclosed:
            os.close(fd)
        for pid in pids:
            os.waitpid(pid, 0)
        gc.unfreeze()
        _pending = None
    for index in range(len(jobs)):
        if index not in outcomes:
            lost = [name for i, name in enumerate(names) if i not in outcomes]
            raise TrainingError(f"a worker process ended abruptly; the {noun} "
                                f"{', '.join(lost)} were lost")
        succeeded, value = outcomes[index]
        if not succeeded:
            raise value
    return [outcomes[index][1] for index in range(len(jobs))]
