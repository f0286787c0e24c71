"""Measure the memory of one corrml command across all of its processes.

    python3 tools/tree_memory.py --src CHECKOUT [--runs N] -- COMMAND [ARGS...]

runs ``python -m corrml.cli COMMAND ARGS...`` with ``CHECKOUT/src`` on
``PYTHONPATH``, in the current directory, N times (default 1), one run after
another, and prints the median and range over the runs of five figures, as
``NAME median M range LO-HI runs N``:

    wait4_peak_mb      the ru_maxrss that wait4 reports for the command, that
                       is, the peak RSS of its largest single process (what the
                       benchmark's peak-RSS metrics read)
    tree_pss_peak_mb   the peak over time of the summed proportional set size
                       (Pss) of the command and its worker processes
    peak_processes     the most of those processes alive at one sample
    cpu_s              the user plus system CPU seconds that the same wait4
                       call reports for the command and the workers it reaped
    wall_s             the seconds from starting the command to reaping it

The command runs in a session of its own, and its forked workers stay in its
process group. Every 10 ms the tool lists the process ids in /proc and, for
each one in that group, reads ``/proc/<pid>/smaps_rollup``; it reads nothing
else under /proc and writes nothing there. A process that starts and ends
between two samples is missed. MB is 2**20 bytes. A run that exits nonzero
ends the series: the figures cover the runs up to it, and the tool exits
with its exit code. Uses the standard library only.
"""

import argparse
import os
import statistics
import subprocess
import sys
import time

INTERVAL_S = 0.01


def _group_pss_kb(pgid: int) -> tuple[int, int]:
    """(summed Pss in kB, process count) over the live members of `pgid`."""
    total = count = 0
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            if os.getpgid(int(entry)) != pgid:
                continue
            with open(f"/proc/{entry}/smaps_rollup") as fh:
                pss = [line.split()[1] for line in fh if line.startswith("Pss:")]
        except (ProcessLookupError, FileNotFoundError, PermissionError):
            continue  # ended, or never ours, between the listing and the read
        if pss:  # a process that has exited but not been reaped maps nothing
            total += int(pss[0])
            count += 1
    return total, count


def measure(src: str, argv: list[str]) -> tuple[int, float, float, int, float, float]:
    """(exit code, wait4 peak MB, summed-Pss peak MB, peak process count, CPU
    seconds, wall seconds)."""
    env = {**os.environ, "PYTHONPATH": os.path.join(os.path.abspath(src), "src"),
           "PYTHONDONTWRITEBYTECODE": "1"}
    start = time.monotonic()
    proc = subprocess.Popen([sys.executable, "-m", "corrml.cli", *argv], env=env,
                            start_new_session=True)
    peak_kb = peak_count = 0
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid:
            break
        kb, count = _group_pss_kb(proc.pid)
        peak_kb, peak_count = max(peak_kb, kb), max(peak_count, count)
        time.sleep(INTERVAL_S)
    wall = time.monotonic() - start
    proc.returncode = os.waitstatus_to_exitcode(status)  # reaped here, not by Popen
    return (proc.returncode, usage.ru_maxrss / 1024, peak_kb / 1024, peak_count,
            usage.ru_utime + usage.ru_stime, wall)


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--src", required=True, help="checkout whose src/ the command runs")
    p.add_argument("--runs", type=int, default=1, help="runs of the command (default 1)")
    p.add_argument("command", nargs=argparse.REMAINDER,
                   help="the corrml command and its arguments, after --")
    args = p.parse_args()
    argv = args.command[1:] if args.command[:1] == ["--"] else args.command
    if not argv:
        p.error("no corrml command given")
    if not os.path.isfile(os.path.join(args.src, "src", "corrml", "cli.py")):
        p.error(f"{args.src} holds no src/corrml/cli.py")
    if args.runs < 1:
        p.error("--runs must be >= 1")
    figures = {"wait4_peak_mb": [], "tree_pss_peak_mb": [], "peak_processes": [],
               "cpu_s": [], "wall_s": []}
    code = 0
    for _ in range(args.runs):
        code, *values = measure(args.src, argv)
        for series, value in zip(figures.values(), values):
            series.append(value)
        if code:
            break
    runs = len(figures["peak_processes"])
    for name, series in figures.items():
        fmt = {"peak_processes": "g", "cpu_s": ".2f", "wall_s": ".2f"}.get(name, ".1f")
        print(f"{name} median {statistics.median(series):{fmt}} "
              f"range {min(series):{fmt}}-{max(series):{fmt}} runs {runs}")
    return code


if __name__ == "__main__":
    sys.exit(main())
